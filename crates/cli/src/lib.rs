//! # tw-cli
//!
//! The `traffic-warehouse` command-line tool: the headless delivery vehicle
//! for the game. Educators use it to validate and preview module files and to
//! export the built-in library; students (or scripts) can play a bundle from
//! the terminal.
//!
//! ```text
//! traffic-warehouse validate <module.json>
//! traffic-warehouse render   <module.json> [--three-d] [--colors] [--out out.ppm]
//! traffic-warehouse play     <bundle.zip>  [--seed N]
//! traffic-warehouse export-library <directory>
//! traffic-warehouse obfuscate <module.json>
//! traffic-warehouse curriculum
//! traffic-warehouse figures
//! ```

use std::fmt::Write as _;
use tw_core::game::{GameSession, ViewState, WarehouseScene};
use tw_core::module::{
    default_curriculum, from_json_maybe_obfuscated, to_obfuscated_json, validate,
};
use tw_core::patterns::{patterns_for_figure, Figure};
use tw_core::prelude::*;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Validate a module JSON file.
    Validate { path: String },
    /// Render a module to ASCII (and optionally a PPM file).
    Render {
        path: String,
        three_d: bool,
        colors: bool,
        out: Option<String>,
    },
    /// Auto-play a bundle and print the transcript.
    Play { path: String, seed: u64 },
    /// Write the initial library's ZIP bundles into a directory.
    ExportLibrary { directory: String },
    /// Re-emit a module with its correct answer obfuscated.
    Obfuscate { path: String },
    /// Run a named ingest scenario and print per-window statistics,
    /// optionally recording the window stream to a replayable ZIP.
    Ingest {
        scenario: String,
        windows: usize,
        nodes: u32,
        seed: u64,
        shards: usize,
        route_threads: usize,
        batch: usize,
        window_us: u64,
        horizon_us: u64,
        skew_us: u64,
        record: Option<String>,
        keyframe_every: u64,
        json: bool,
        metrics_json: Option<String>,
        stats_every: u64,
    },
    /// Replay a recorded window stream into the live warehouse view.
    Replay { path: String, speed: u64 },
    /// Serve one scenario (live or replayed) to remote `connect` clients
    /// over TCP, framing the v2 window codec.
    Serve(ServeArgs),
    /// Join a `serve` session and follow its window stream.
    Connect {
        addr: String,
        windows: Option<usize>,
        stats: bool,
    },
    /// Serve one scenario (live or replayed) to a classroom of student
    /// sessions over the broadcast hub.
    Classroom {
        scenario: Option<String>,
        replay: Option<String>,
        students: usize,
        windows: Option<usize>,
        nodes: u32,
        seed: u64,
        shards: usize,
        route_threads: usize,
        window_us: u64,
        horizon_us: u64,
        skew_us: u64,
        speed: u64,
        late: Option<usize>,
        metrics_json: Option<String>,
        stats_every: u64,
    },
    /// Run the workspace static-analysis pass (tw-analyze).
    Analyze {
        root: Option<String>,
        rule: Option<String>,
        json: Option<String>,
        deny_warnings: bool,
        list_waivers: bool,
    },
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

/// The usage text.
pub const USAGE: &str = "traffic-warehouse <command>

Commands:
  validate <module.json>                      check a learning module against the authoring guidance
  render <module.json> [--three-d] [--colors] [--out file.ppm]
                                              preview a module (ASCII to stdout, optional PPM)
  play <bundle.zip> [--seed N]                auto-play a module bundle and print the transcript
  export-library <directory>                  write the built-in module bundles as .zip files
  obfuscate <module.json>                     re-emit the module with its answer obfuscated
  ingest --scenario <name> [--windows N] [--nodes N] [--seed N] [--shards N] [--route-threads N] [--batch N] [--window-us N] [--skew-us N] [--horizon-us N] [--record file.zip] [--keyframe-every N] [--json] [--metrics-json file.json] [--stats-every N]
                                              stream a scenario through the sharded ingest
                                              pipeline and print per-window stats
                                              (scenarios: background, ddos, scan,
                                              flash-crowd, p2p, mixed); --skew-us drifts
                                              the per-source clocks (out-of-order stream)
                                              and --horizon-us sets the watermark
                                              reordering horizon that absorbs it;
                                              --route-threads caps the routing
                                              workers per batch (0 = one per
                                              hardware thread), used only for
                                              batches of 131072+ events (so
                                              not at the default --batch);
                                              --record also captures the window stream
                                              as a replayable ZIP (--keyframe-every N
                                              stores every N-th window in full and the
                                              rest as sparse v3 deltas where smaller
                                              than in full — smaller archives for
                                              steady traffic); --json
                                              emits one
                                              tw-json object per window instead of the
                                              human transcript; --metrics-json writes
                                              the final pipeline metrics snapshot,
                                              --stats-every N prints a one-line stats
                                              summary every N windows
  replay <file.zip> [--speed N]               re-emit a recorded window stream into the live
                                              warehouse view without regenerating any events,
                                              streamed incrementally from disk (--speed N
                                              paces playback at N x real time; default is as
                                              fast as possible)
  classroom --scenario <name> [--students N] [--windows N] [--nodes N] [--seed N] [--shards N]
            [--route-threads N] [--window-us N] [--skew-us N] [--horizon-us N] [--replay file.zip] [--speed N] [--late N]
            [--metrics-json file.json] [--stats-every N]
                                              fan one window stream (live scenario, or a
                                              recording with --replay) out to N student
                                              sessions over the broadcast hub and print
                                              per-student summaries; --late students join
                                              mid-scenario and catch up from the ring;
                                              --metrics-json / --stats-every export the
                                              pipeline+broadcast metrics
  serve --listen <addr> --scenario <name> [--students N] [--windows N] [--nodes N] [--seed N]
        [--shards N] [--route-threads N] [--window-us N] [--skew-us N] [--horizon-us N] [--replay file.zip] [--speed N]
        [--keyframe-every N] [--metrics-json file.json] [--stats-every N]
                                              serve one window stream (live scenario, or a
                                              recording with --replay) to remote connect
                                              clients as length-prefixed, CRC-checked
                                              frames carrying the v2 window codec;
                                              --students holds the first window until that
                                              many clients have joined, and a slow reader
                                              drops frames (with accounting) instead of
                                              stalling the class; port 0 picks a free port
                                              (printed on the eager `listening on` line);
                                              --keyframe-every N serves every N-th
                                              window in full and the rest as sparse v3
                                              delta frames where smaller than in full
                                              (late joiners anchor on a key frame from
                                              the catch-up ring);
                                              --metrics-json writes the final snapshot,
                                              --stats-every N also streams Stats frames
                                              to every client every N windows
                                              (readable with connect --stats)
  connect <addr> [--windows N] [--stats]      join a serve session: follow the remote
                                              window stream into a live warehouse view and
                                              print the server's close accounting;
                                              --stats prints the server's live metrics
                                              snapshots as they arrive (the server must
                                              serve with --stats-every)
  analyze [--root <dir>] [--rule <name>] [--json <file.json>] [--deny-warnings] [--list-waivers]
                                              run the workspace static-analysis pass
                                              (lexer + rule engine over the crates'
                                              own source); --rule runs one rule,
                                              --json also writes the machine-readable
                                              report, --deny-warnings fails when any
                                              unwaived finding remains, and
                                              --list-waivers prints every active
                                              inline waiver with its justification
  scenarios                                   list the ingest scenario catalog
  curriculum                                  print the default hierarchical curriculum
  figures                                     print every figure's traffic pattern
  help                                        show this message
";

/// Parse command-line arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut iter = args.iter();
    let command = iter.next().map(String::as_str).unwrap_or("help");
    match command {
        "validate" => {
            let path = iter
                .next()
                .ok_or(CliError("validate needs a module path".to_string()))?;
            Ok(Command::Validate { path: path.clone() })
        }
        "render" => {
            let path = iter
                .next()
                .ok_or(CliError("render needs a module path".to_string()))?
                .clone();
            let mut three_d = false;
            let mut colors = false;
            let mut out = None;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--three-d" | "--3d" => three_d = true,
                    "--colors" => colors = true,
                    "--out" => {
                        out = Some(
                            iter.next()
                                .ok_or(CliError("--out needs a file path".to_string()))?
                                .clone(),
                        )
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Render {
                path,
                three_d,
                colors,
                out,
            })
        }
        "play" => {
            let path = iter
                .next()
                .ok_or(CliError("play needs a bundle path".to_string()))?
                .clone();
            let mut seed = 0u64;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--seed" => {
                        seed = iter
                            .next()
                            .ok_or(CliError("--seed needs a value".to_string()))?
                            .parse()
                            .map_err(|_| CliError("--seed must be an integer".to_string()))?
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Play { path, seed })
        }
        "export-library" => {
            let directory = iter
                .next()
                .ok_or(CliError("export-library needs a directory".to_string()))?;
            Ok(Command::ExportLibrary {
                directory: directory.clone(),
            })
        }
        "obfuscate" => {
            let path = iter
                .next()
                .ok_or(CliError("obfuscate needs a module path".to_string()))?;
            Ok(Command::Obfuscate { path: path.clone() })
        }
        "ingest" => {
            let mut scenario = None;
            let mut windows = 4usize;
            let mut nodes = 1024u32;
            let mut seed = 7u64;
            let mut shards = 0usize;
            let mut route_threads = 0usize;
            let mut batch = 8192usize;
            let mut window_us = 100_000u64;
            let mut horizon_us = 0u64;
            let mut skew_us = 0u64;
            let mut record = None;
            let mut keyframe_every = 0u64;
            let mut json = false;
            let mut metrics_json = None;
            let mut stats_every = 0u64;
            fn value<'a, T: std::str::FromStr>(
                iter: &mut std::slice::Iter<'a, String>,
                flag: &str,
            ) -> Result<T, CliError> {
                iter.next()
                    .ok_or(CliError(format!("{flag} needs a value")))?
                    .parse()
                    .map_err(|_| CliError(format!("{flag} value is not valid")))
            }
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--scenario" => {
                        scenario = Some(
                            iter.next()
                                .ok_or(CliError("--scenario needs a name".to_string()))?
                                .clone(),
                        )
                    }
                    "--windows" => windows = value(&mut iter, "--windows")?,
                    "--nodes" => nodes = value(&mut iter, "--nodes")?,
                    "--seed" => seed = value(&mut iter, "--seed")?,
                    "--shards" => shards = value(&mut iter, "--shards")?,
                    "--route-threads" => route_threads = value(&mut iter, "--route-threads")?,
                    "--batch" => batch = value(&mut iter, "--batch")?,
                    "--window-us" => window_us = value(&mut iter, "--window-us")?,
                    "--horizon-us" => horizon_us = value(&mut iter, "--horizon-us")?,
                    "--skew-us" => skew_us = value(&mut iter, "--skew-us")?,
                    "--record" => {
                        record = Some(
                            iter.next()
                                .ok_or(CliError("--record needs a file path".to_string()))?
                                .clone(),
                        )
                    }
                    "--keyframe-every" => keyframe_every = value(&mut iter, "--keyframe-every")?,
                    "--json" => json = true,
                    "--metrics-json" => {
                        metrics_json = Some(
                            iter.next()
                                .ok_or(CliError("--metrics-json needs a file path".to_string()))?
                                .clone(),
                        )
                    }
                    "--stats-every" => stats_every = value(&mut iter, "--stats-every")?,
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            let scenario =
                scenario.ok_or(CliError("ingest needs --scenario <name>".to_string()))?;
            if windows == 0 {
                return Err(CliError("--windows must be at least 1".to_string()));
            }
            if keyframe_every > 0 && record.is_none() {
                return Err(CliError(
                    "--keyframe-every shapes the recorded archive; it needs --record".to_string(),
                ));
            }
            Ok(Command::Ingest {
                scenario,
                windows,
                nodes,
                seed,
                shards,
                route_threads,
                batch,
                window_us,
                horizon_us,
                skew_us,
                record,
                keyframe_every,
                json,
                metrics_json,
                stats_every,
            })
        }
        "replay" => {
            let path = iter
                .next()
                .ok_or(CliError("replay needs a recording path".to_string()))?
                .clone();
            let mut speed = 0u64;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--speed" => {
                        speed = iter
                            .next()
                            .ok_or(CliError("--speed needs a value".to_string()))?
                            .parse()
                            .map_err(|_| CliError("--speed must be an integer".to_string()))?;
                        if speed == 0 {
                            return Err(CliError("--speed must be at least 1".to_string()));
                        }
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Replay { path, speed })
        }
        "serve" => {
            let mut listen = None;
            let mut scenario = None;
            let mut replay = None;
            let mut students = 0usize;
            let mut windows = None;
            let mut nodes = 256u32;
            let mut seed = 7u64;
            let mut shards = 0usize;
            let mut route_threads = 0usize;
            let mut window_us = 100_000u64;
            let mut horizon_us = 0u64;
            let mut skew_us = 0u64;
            let mut speed = 0u64;
            let mut metrics_json = None;
            let mut stats_every = 0u64;
            let mut keyframe_every = 0u64;
            fn value<T: std::str::FromStr>(
                iter: &mut std::slice::Iter<'_, String>,
                flag: &str,
            ) -> Result<T, CliError> {
                iter.next()
                    .ok_or(CliError(format!("{flag} needs a value")))?
                    .parse()
                    .map_err(|_| CliError(format!("{flag} value is not valid")))
            }
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--listen" => {
                        listen = Some(
                            iter.next()
                                .ok_or(CliError("--listen needs an address".to_string()))?
                                .clone(),
                        )
                    }
                    "--route-threads" => route_threads = value(&mut iter, "--route-threads")?,
                    "--scenario" => {
                        scenario = Some(
                            iter.next()
                                .ok_or(CliError("--scenario needs a name".to_string()))?
                                .clone(),
                        )
                    }
                    "--replay" => {
                        replay = Some(
                            iter.next()
                                .ok_or(CliError("--replay needs a file path".to_string()))?
                                .clone(),
                        )
                    }
                    "--students" => students = value(&mut iter, "--students")?,
                    "--windows" => windows = Some(value(&mut iter, "--windows")?),
                    "--nodes" => nodes = value(&mut iter, "--nodes")?,
                    "--seed" => seed = value(&mut iter, "--seed")?,
                    "--shards" => shards = value(&mut iter, "--shards")?,
                    "--window-us" => window_us = value(&mut iter, "--window-us")?,
                    "--horizon-us" => horizon_us = value(&mut iter, "--horizon-us")?,
                    "--skew-us" => skew_us = value(&mut iter, "--skew-us")?,
                    "--speed" => {
                        speed = value(&mut iter, "--speed")?;
                        if speed == 0 {
                            return Err(CliError("--speed must be at least 1".to_string()));
                        }
                    }
                    "--keyframe-every" => keyframe_every = value(&mut iter, "--keyframe-every")?,
                    "--metrics-json" => {
                        metrics_json = Some(
                            iter.next()
                                .ok_or(CliError("--metrics-json needs a file path".to_string()))?
                                .clone(),
                        )
                    }
                    "--stats-every" => stats_every = value(&mut iter, "--stats-every")?,
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            let listen = listen.ok_or(CliError("serve needs --listen <addr>".to_string()))?;
            if scenario.is_none() && replay.is_none() {
                return Err(CliError(
                    "serve needs --scenario <name> or --replay <file.zip>".to_string(),
                ));
            }
            if scenario.is_some() && replay.is_some() {
                return Err(CliError(
                    "--scenario and --replay are mutually exclusive (a recording \
                     carries its own scenario)"
                        .to_string(),
                ));
            }
            if replay.is_some() && (horizon_us > 0 || skew_us > 0) {
                return Err(CliError(
                    "--skew-us/--horizon-us shape live ingestion; a recording was \
                     already windowed when it was captured"
                        .to_string(),
                ));
            }
            if windows == Some(0) {
                return Err(CliError("--windows must be at least 1".to_string()));
            }
            Ok(Command::Serve(ServeArgs {
                listen,
                scenario,
                replay,
                students,
                windows,
                nodes,
                seed,
                shards,
                route_threads,
                window_us,
                horizon_us,
                skew_us,
                speed,
                metrics_json,
                stats_every,
                keyframe_every,
            }))
        }
        "connect" => {
            let addr = iter
                .next()
                .ok_or(CliError("connect needs a server address".to_string()))?
                .clone();
            let mut windows = None;
            let mut stats = false;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--windows" => {
                        let n: usize = iter
                            .next()
                            .ok_or(CliError("--windows needs a value".to_string()))?
                            .parse()
                            .map_err(|_| CliError("--windows value is not valid".to_string()))?;
                        if n == 0 {
                            return Err(CliError("--windows must be at least 1".to_string()));
                        }
                        windows = Some(n);
                    }
                    "--stats" => stats = true,
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Connect {
                addr,
                windows,
                stats,
            })
        }
        "classroom" => {
            let mut scenario = None;
            let mut replay = None;
            let mut students = 8usize;
            let mut windows = None;
            let mut nodes = 256u32;
            let mut seed = 7u64;
            let mut shards = 0usize;
            let mut route_threads = 0usize;
            let mut window_us = 100_000u64;
            let mut horizon_us = 0u64;
            let mut skew_us = 0u64;
            let mut speed = 0u64;
            let mut late = None;
            let mut metrics_json = None;
            let mut stats_every = 0u64;
            fn value<T: std::str::FromStr>(
                iter: &mut std::slice::Iter<'_, String>,
                flag: &str,
            ) -> Result<T, CliError> {
                iter.next()
                    .ok_or(CliError(format!("{flag} needs a value")))?
                    .parse()
                    .map_err(|_| CliError(format!("{flag} value is not valid")))
            }
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--scenario" => {
                        scenario = Some(
                            iter.next()
                                .ok_or(CliError("--scenario needs a name".to_string()))?
                                .clone(),
                        )
                    }
                    "--replay" => {
                        replay = Some(
                            iter.next()
                                .ok_or(CliError("--replay needs a file path".to_string()))?
                                .clone(),
                        )
                    }
                    "--students" => students = value(&mut iter, "--students")?,
                    "--windows" => windows = Some(value(&mut iter, "--windows")?),
                    "--nodes" => nodes = value(&mut iter, "--nodes")?,
                    "--seed" => seed = value(&mut iter, "--seed")?,
                    "--shards" => shards = value(&mut iter, "--shards")?,
                    "--window-us" => window_us = value(&mut iter, "--window-us")?,
                    "--horizon-us" => horizon_us = value(&mut iter, "--horizon-us")?,
                    "--skew-us" => skew_us = value(&mut iter, "--skew-us")?,
                    "--speed" => {
                        speed = value(&mut iter, "--speed")?;
                        if speed == 0 {
                            return Err(CliError("--speed must be at least 1".to_string()));
                        }
                    }
                    "--late" => late = Some(value(&mut iter, "--late")?),
                    "--route-threads" => route_threads = value(&mut iter, "--route-threads")?,
                    "--metrics-json" => {
                        metrics_json = Some(
                            iter.next()
                                .ok_or(CliError("--metrics-json needs a file path".to_string()))?
                                .clone(),
                        )
                    }
                    "--stats-every" => stats_every = value(&mut iter, "--stats-every")?,
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            if scenario.is_none() && replay.is_none() {
                return Err(CliError(
                    "classroom needs --scenario <name> or --replay <file.zip>".to_string(),
                ));
            }
            if scenario.is_some() && replay.is_some() {
                return Err(CliError(
                    "--scenario and --replay are mutually exclusive (a recording \
                     carries its own scenario)"
                        .to_string(),
                ));
            }
            if replay.is_some() && (horizon_us > 0 || skew_us > 0) {
                return Err(CliError(
                    "--skew-us/--horizon-us shape live ingestion; a recording was \
                     already windowed when it was captured"
                        .to_string(),
                ));
            }
            if students == 0 {
                return Err(CliError("--students must be at least 1".to_string()));
            }
            if windows == Some(0) {
                return Err(CliError("--windows must be at least 1".to_string()));
            }
            Ok(Command::Classroom {
                scenario,
                replay,
                students,
                windows,
                nodes,
                seed,
                shards,
                route_threads,
                window_us,
                horizon_us,
                skew_us,
                speed,
                late,
                metrics_json,
                stats_every,
            })
        }
        "analyze" => {
            let mut root = None;
            let mut rule = None;
            let mut json = None;
            let mut deny_warnings = false;
            let mut list_waivers = false;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--root" => {
                        root = Some(
                            iter.next()
                                .ok_or(CliError("--root needs a directory".to_string()))?
                                .clone(),
                        );
                    }
                    "--rule" => {
                        rule = Some(
                            iter.next()
                                .ok_or(CliError("--rule needs a rule name".to_string()))?
                                .clone(),
                        );
                    }
                    "--json" => {
                        json = Some(
                            iter.next()
                                .ok_or(CliError("--json needs a file path".to_string()))?
                                .clone(),
                        );
                    }
                    "--deny-warnings" => deny_warnings = true,
                    "--list-waivers" => list_waivers = true,
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Analyze {
                root,
                rule,
                json,
                deny_warnings,
                list_waivers,
            })
        }
        "scenarios" => Ok(Command::Scenarios),
        "curriculum" => Ok(Command::Curriculum),
        "figures" => Ok(Command::Figures),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(CliError(format!(
            "unknown command {other:?}; run `traffic-warehouse help`"
        ))),
    }
}

/// Run a command, returning the text to print.
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Validate { path } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let module = from_json_maybe_obfuscated(&text).map_err(|e| CliError(e.to_string()))?;
            Ok(render_validation(&module))
        }
        Command::Render {
            path,
            three_d,
            colors,
            out,
        } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let module = from_json_maybe_obfuscated(&text).map_err(|e| CliError(e.to_string()))?;
            let (ascii, ppm) = render_module(&module, *three_d, *colors);
            if let Some(out_path) = out {
                std::fs::write(out_path, ppm).map_err(|e| CliError(format!("{out_path}: {e}")))?;
            }
            Ok(ascii)
        }
        Command::Play { path, seed } => {
            let bytes = std::fs::read(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let bundle = tw_core::load_bundle(path, &bytes).map_err(|e| CliError(e.to_string()))?;
            play_bundle(bundle, *seed)
        }
        Command::ExportLibrary { directory } => {
            std::fs::create_dir_all(directory)
                .map_err(|e| CliError(format!("{directory}: {e}")))?;
            let mut out = String::new();
            for (name, bytes) in tw_core::initial_library_zips() {
                let slug: String = name
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() {
                            c.to_ascii_lowercase()
                        } else {
                            '_'
                        }
                    })
                    .collect();
                let path = format!("{directory}/{slug}.zip");
                std::fs::write(&path, &bytes).map_err(|e| CliError(format!("{path}: {e}")))?;
                let _ = writeln!(out, "wrote {path} ({} bytes)", bytes.len());
            }
            Ok(out)
        }
        Command::Obfuscate { path } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let module = from_json_maybe_obfuscated(&text).map_err(|e| CliError(e.to_string()))?;
            to_obfuscated_json(&module).map_err(|e| CliError(e.to_string()))
        }
        Command::Ingest {
            scenario,
            windows,
            nodes,
            seed,
            shards,
            route_threads,
            batch,
            window_us,
            horizon_us,
            skew_us,
            record,
            keyframe_every,
            json,
            metrics_json,
            stats_every,
        } => run_ingest(&IngestArgs {
            scenario: scenario.clone(),
            windows: *windows,
            nodes: *nodes,
            seed: *seed,
            shards: *shards,
            route_threads: *route_threads,
            batch: *batch,
            window_us: *window_us,
            horizon_us: *horizon_us,
            skew_us: *skew_us,
            record: record.clone(),
            keyframe_every: *keyframe_every,
            json: *json,
            metrics_json: metrics_json.clone(),
            stats_every: *stats_every,
        }),
        Command::Replay { path, speed } => run_replay(path, *speed),
        Command::Serve(args) => run_serve(args),
        Command::Connect {
            addr,
            windows,
            stats,
        } => run_connect(addr, *windows, *stats),
        Command::Classroom {
            scenario,
            replay,
            students,
            windows,
            nodes,
            seed,
            shards,
            route_threads,
            window_us,
            horizon_us,
            skew_us,
            speed,
            late,
            metrics_json,
            stats_every,
        } => run_classroom(&ClassroomArgs {
            scenario: scenario.clone(),
            replay: replay.clone(),
            students: *students,
            windows: *windows,
            nodes: *nodes,
            seed: *seed,
            shards: *shards,
            route_threads: *route_threads,
            window_us: *window_us,
            horizon_us: *horizon_us,
            skew_us: *skew_us,
            speed: *speed,
            late: *late,
            metrics_json: metrics_json.clone(),
            stats_every: *stats_every,
        }),
        Command::Analyze {
            root,
            rule,
            json,
            deny_warnings,
            list_waivers,
        } => run_analyze(
            root.as_deref(),
            rule.clone(),
            json.as_deref(),
            *deny_warnings,
            *list_waivers,
        ),
        Command::Scenarios => Ok(render_scenarios()),
        Command::Curriculum => Ok(render_curriculum()),
        Command::Figures => Ok(render_figures()),
    }
}

/// Run the workspace static-analysis pass and render its report.
///
/// Without `--root` the workspace is found by walking up from the current
/// directory to the nearest `analyze.toml`. With `--deny-warnings` an
/// unwaived finding is an error (non-zero exit), matching the CI gate.
fn run_analyze(
    root: Option<&str>,
    rule: Option<String>,
    json: Option<&str>,
    deny_warnings: bool,
    list_waivers: bool,
) -> Result<String, CliError> {
    let root = match root {
        Some(dir) => std::path::PathBuf::from(dir),
        None => tw_analyze::find_workspace_root(std::path::Path::new("."))
            .map_err(|e| CliError(e.to_string()))?,
    };
    let options = tw_analyze::Options { rule };
    let report = tw_analyze::analyze_with(&root, &options).map_err(|e| CliError(e.to_string()))?;
    if list_waivers {
        return Ok(report.render_waivers());
    }
    if let Some(path) = json {
        std::fs::write(path, report.render_json())
            .map_err(|e| CliError(format!("writing {path}: {e}")))?;
    }
    let text = report.render_text();
    if deny_warnings && report.unwaived_count() > 0 {
        return Err(CliError(format!(
            "{text}analyze: --deny-warnings with {} unwaived finding(s)",
            report.unwaived_count()
        )));
    }
    Ok(text)
}

/// Arguments for [`run_ingest`] (one scenario streamed through the pipeline).
#[derive(Debug, Clone)]
pub struct IngestArgs {
    /// Scenario name.
    pub scenario: String,
    /// Windows to emit.
    pub windows: usize,
    /// Address-space size.
    pub nodes: u32,
    /// Scenario seed.
    pub seed: u64,
    /// Shard count (0 = auto).
    pub shards: usize,
    /// Routing worker threads per batch (0 = one per hardware thread); batches
    /// under `2 * tw_ingest::shard::PAR_GRAIN` events route inline.
    pub route_threads: usize,
    /// Batch size (the backpressure bound).
    pub batch: usize,
    /// Tumbling-window duration in simulated microseconds.
    pub window_us: u64,
    /// Watermark reordering horizon in simulated microseconds (0 = strict).
    pub horizon_us: u64,
    /// Per-source clock skew in simulated microseconds (0 = sorted stream).
    pub skew_us: u64,
    /// Record the window stream to a replayable ZIP at this path.
    pub record: Option<String>,
    /// Key-frame cadence for the recorded archive: every K-th window is a
    /// self-contained key frame, the rest sparse v3 deltas against the
    /// previous window where smaller than in full (0 = every window full,
    /// a version-1 archive).
    pub keyframe_every: u64,
    /// Emit one tw-json object per window (machine-readable transcript)
    /// instead of the human per-window lines, banner and totals.
    pub json: bool,
    /// Write the final pipeline metrics snapshot (pretty tw-json) here.
    pub metrics_json: Option<String>,
    /// Print a one-line metrics summary every N windows (0 = never;
    /// suppressed by `json`, which keeps the transcript pure JSONL).
    pub stats_every: u64,
}

impl IngestArgs {
    /// Defaults matching the CLI parser, for tests and embedding callers.
    pub fn new(scenario: &str) -> Self {
        IngestArgs {
            scenario: scenario.to_string(),
            windows: 4,
            nodes: 1024,
            seed: 7,
            shards: 0,
            route_threads: 0,
            batch: 8192,
            window_us: 100_000,
            horizon_us: 0,
            skew_us: 0,
            record: None,
            keyframe_every: 0,
            json: false,
            metrics_json: None,
            stats_every: 0,
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
fn write_metrics_json(
    path: &str,
    snapshot: &tw_core::metrics::MetricsSnapshot,
) -> Result<(), CliError> {
    let mut text = tw_core::json::to_string_pretty(&snapshot.to_json());
    text.push('\n');
    std::fs::write(path, text).map_err(|e| CliError(format!("{path}: {e}")))
}

/// Stream a named scenario through the sharded ingest pipeline and render
/// per-window statistics; with `record`, also capture the window stream as
/// a replayable ZIP at that path. A non-zero `skew_us` drifts the source
/// clocks (an out-of-order stream) and `horizon_us` sets the watermark
/// reordering horizon that absorbs the disorder.
pub fn run_ingest(args: &IngestArgs) -> Result<String, CliError> {
    use tw_core::ingest::{
        ArchiveRecorder, Pipeline, PipelineConfig, RecordingMeta, Scenario, MAX_DIMENSION,
    };
    use tw_core::metrics::MetricsRegistry;

    let scenario_name = args.scenario.as_str();
    let scenario = Scenario::by_name(scenario_name).ok_or_else(|| {
        let known: Vec<&str> = Scenario::all().iter().map(|s| s.name()).collect();
        CliError(format!(
            "unknown scenario {scenario_name:?}; known scenarios: {}",
            known.join(", ")
        ))
    })?;
    if args.nodes < 20 {
        return Err(CliError("--nodes must be at least 20".to_string()));
    }
    if args.record.is_some() && args.nodes as usize > MAX_DIMENSION {
        return Err(CliError(format!(
            "--record supports at most {MAX_DIMENSION} nodes (the window codec's dimension limit)"
        )));
    }
    if args.batch == 0 {
        return Err(CliError("--batch must be at least 1".to_string()));
    }
    if args.window_us == 0 {
        return Err(CliError("--window-us must be at least 1".to_string()));
    }
    let config = PipelineConfig {
        window_us: args.window_us,
        batch_size: args.batch,
        shard_count: args.shards,
        reorder_horizon_us: args.horizon_us,
        route_threads: args.route_threads,
        ..PipelineConfig::default()
    };
    let (source, max_disorder_us) = scenario.skewed_source(args.nodes, args.seed, args.skew_us);
    // One registry spans the whole run when any metrics output was asked
    // for; the pipeline records its stage timings and counters into it.
    let registry = (args.metrics_json.is_some() || args.stats_every > 0).then(MetricsRegistry::new);
    let mut pipeline = Pipeline::new(source, config);
    if let Some(registry) = &registry {
        pipeline.instrument(registry);
    }
    let mut out = String::new();
    if !args.json {
        let _ = writeln!(
            out,
            "scenario {scenario} ({}): {} nodes, {} us windows, {} shard(s), batch {}, seed {}",
            scenario.describe(),
            args.nodes,
            args.window_us,
            pipeline.shard_count(),
            args.batch,
            args.seed,
        );
        if args.skew_us > 0 || args.horizon_us > 0 {
            let _ = writeln!(
                out,
                "out-of-order: clock skew up to {} us (max disorder {} us), reorder horizon {} us{}",
                args.skew_us,
                max_disorder_us,
                args.horizon_us,
                if max_disorder_us > args.horizon_us {
                    " [WARNING: horizon below the disorder bound; late drops expected]"
                } else {
                    ""
                },
            );
        }
    }
    let mut recorder = args.record.as_ref().map(|_| {
        ArchiveRecorder::new(RecordingMeta {
            scenario: scenario.name().to_string(),
            seed: args.seed,
            node_count: args.nodes as usize,
            window_us: args.window_us,
            keyframe_every: args.keyframe_every,
        })
    });
    // Pull windows one at a time (instead of the batch `run`) so periodic
    // stats lines interleave with the transcript at the cadence asked for.
    // Only the per-window stats are kept for the totals; each matrix goes
    // back to the pipeline's CSR pool once recorded, so the transcript run
    // holds one window in memory and rotation reuses the arrays.
    let mut window_stats = Vec::with_capacity(args.windows);
    while window_stats.len() < args.windows {
        let report = match pipeline.next_window() {
            Some(report) => report,
            None => break,
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
            && args.stats_every > 0
            && (window_stats.len() as u64).is_multiple_of(args.stats_every)
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
    if let (Some(path), Some(registry)) = (args.metrics_json.as_deref(), &registry) {
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
    use tw_core::ingest::{FileReplaySource, Paced, WindowStream};

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
            use std::io::Write as _;
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
        if speed > 0 {
            format!(", paced at {speed}x real time")
        } else {
            String::new()
        },
    ));
    Ok(out)
}

/// The stream half that `classroom` and `serve` share: one window stream
/// (live scenario or recording) plus the banner facts a serving front end
/// prints.
struct ClassStream {
    stream: Box<dyn tw_core::ingest::WindowStream>,
    scenario: String,
    description: String,
    node_count: usize,
    /// The seed the stream was generated with (a recording carries its own).
    seed: u64,
}

/// Build the one stream a whole class shares — a live scenario or a recorded
/// capture — validating the same invariants for every front end that serves
/// it (in-process classroom or TCP serve).
#[allow(clippy::too_many_arguments)]
fn open_class_stream(
    scenario: Option<&str>,
    replay: Option<&str>,
    nodes: u32,
    seed: u64,
    shards: usize,
    route_threads: usize,
    window_us: u64,
    horizon_us: u64,
    skew_us: u64,
    metrics: Option<&tw_core::metrics::MetricsRegistry>,
) -> Result<ClassStream, CliError> {
    use tw_core::ingest::{FileReplaySource, Pipeline, PipelineConfig, Scenario};

    if replay.is_some() && (horizon_us > 0 || skew_us > 0) {
        return Err(CliError(
            "--skew-us/--horizon-us shape live ingestion; a recording was \
             already windowed when it was captured"
                .to_string(),
        ));
    }
    match replay {
        Some(path) => {
            let replay =
                FileReplaySource::open(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let manifest = replay.manifest().clone();
            Ok(ClassStream {
                stream: Box::new(replay),
                scenario: manifest.scenario.clone(),
                description: format!("replayed from {path}"),
                node_count: manifest.node_count,
                seed: manifest.seed,
            })
        }
        None => {
            let name = scenario.ok_or(CliError(
                "a scenario name or a recording is required".to_string(),
            ))?;
            let scenario = Scenario::by_name(name).ok_or_else(|| {
                let known: Vec<&str> = Scenario::all().iter().map(|s| s.name()).collect();
                CliError(format!(
                    "unknown scenario {name:?}; known scenarios: {}",
                    known.join(", ")
                ))
            })?;
            if nodes < 20 {
                return Err(CliError("--nodes must be at least 20".to_string()));
            }
            if window_us == 0 {
                return Err(CliError("--window-us must be at least 1".to_string()));
            }
            let config = PipelineConfig {
                window_us,
                batch_size: 8_192,
                shard_count: shards,
                reorder_horizon_us: horizon_us,
                route_threads,
                ..PipelineConfig::default()
            };
            let (source, max_disorder_us) = scenario.skewed_source(nodes, seed, skew_us);
            let mut pipeline = Pipeline::new(source, config);
            if let Some(registry) = metrics {
                pipeline.instrument(registry);
            }
            let description = if skew_us > 0 || horizon_us > 0 {
                format!(
                    "{}; clock skew {} us, horizon {} us{}",
                    scenario.describe(),
                    skew_us,
                    horizon_us,
                    if max_disorder_us > horizon_us {
                        " [WARNING: horizon below the disorder bound; late drops expected]"
                    } else {
                        ""
                    },
                )
            } else {
                scenario.describe().to_string()
            };
            Ok(ClassStream {
                stream: Box::new(pipeline),
                scenario: scenario.name().to_string(),
                description,
                node_count: nodes as usize,
                seed,
            })
        }
    }
}

/// How many windows a class run plans to broadcast: the whole recording by
/// default, eight windows of an unbounded live scenario, and never more than
/// a recording actually holds.
fn planned_windows(
    stream: &dyn tw_core::ingest::WindowStream,
    requested: Option<usize>,
) -> Result<usize, CliError> {
    let planned = match stream.remaining_windows() {
        Some(recorded) => requested.unwrap_or(recorded).min(recorded),
        None => requested.unwrap_or(8),
    };
    if planned == 0 {
        return Err(CliError("the recording holds no windows".to_string()));
    }
    Ok(planned)
}

/// Wrap a stream in real-time pacing when a speed multiplier is given.
fn paced(
    stream: Box<dyn tw_core::ingest::WindowStream>,
    speed: u64,
) -> Box<dyn tw_core::ingest::WindowStream> {
    if speed > 0 {
        Box::new(tw_core::ingest::Paced::new(stream, speed))
    } else {
        stream
    }
}

/// Arguments for [`run_classroom`] (one scenario fanned out to N students).
#[derive(Debug, Clone)]
pub struct ClassroomArgs {
    /// Scenario name (required unless `replay` is given).
    pub scenario: Option<String>,
    /// Recording to broadcast instead of generating events live.
    pub replay: Option<String>,
    /// Number of student sessions.
    pub students: usize,
    /// Windows to broadcast (default: 8 live, the whole recording on replay).
    pub windows: Option<usize>,
    /// Address-space size for live scenarios.
    pub nodes: u32,
    /// Scenario seed for live scenarios.
    pub seed: u64,
    /// Shard count for live scenarios (0 = auto).
    pub shards: usize,
    /// Routing worker threads per batch (0 = one per hardware thread); batches
    /// under `2 * tw_ingest::shard::PAR_GRAIN` events route inline.
    pub route_threads: usize,
    /// Tumbling-window duration for live scenarios.
    pub window_us: u64,
    /// Watermark reordering horizon for live scenarios (0 = strict).
    pub horizon_us: u64,
    /// Per-source clock skew for live scenarios (0 = sorted stream).
    pub skew_us: u64,
    /// Pace the broadcast at N x real time (0 = as fast as possible).
    pub speed: u64,
    /// Students that join mid-scenario (default: one in five).
    pub late: Option<usize>,
    /// Write the final pipeline+broadcast metrics snapshot here.
    pub metrics_json: Option<String>,
    /// Print a one-line metrics summary every N broadcast windows.
    pub stats_every: u64,
}

/// Serve one scenario to a classroom: drive the stream once through the
/// broadcast hub on this thread while every student session consumes its own
/// subscription on its own thread; returns per-student summaries.
pub fn run_classroom(args: &ClassroomArgs) -> Result<String, CliError> {
    use tw_core::game::{
        BroadcastConfig, Broadcaster, GameSession, StartOffset, TelemetryEvent, TelemetryHub,
    };

    if args.students > 10_000 {
        return Err(CliError("--students is capped at 10000".to_string()));
    }
    // One registry spans the pipeline and the hub when metrics output was
    // asked for.
    let registry = (args.metrics_json.is_some() || args.stats_every > 0)
        .then(tw_core::metrics::MetricsRegistry::new);
    // Build the one stream the whole class shares.
    let class = open_class_stream(
        args.scenario.as_deref(),
        args.replay.as_deref(),
        args.nodes,
        args.seed,
        args.shards,
        args.route_threads,
        args.window_us,
        args.horizon_us,
        args.skew_us,
        registry.as_ref(),
    )?;
    let planned = planned_windows(class.stream.as_ref(), args.windows)?;
    let (scenario_name, description, node_count) =
        (class.scenario, class.description, class.node_count);
    let mut stream = paced(class.stream, args.speed);

    // Size the dashboard buffer to the class — joins, detaches, the close,
    // and one lag event per window per student — so the printed lag count is
    // exact. The clamp bounds memory for absurd classes; beyond it the count
    // can undercount and the eviction note below says so.
    let telemetry_capacity = args
        .students
        .saturating_mul(planned.saturating_add(3))
        .clamp(1024, 1 << 18);
    let telemetry = TelemetryHub::with_capacity(telemetry_capacity);
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
                let scenario_name = scenario_name.clone();
                let seed = args.seed;
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
            match caster.step(stream.as_mut()) {
                Ok(Some(_)) => {
                    broadcast += 1;
                    if args.stats_every > 0 && (broadcast as u64).is_multiple_of(args.stats_every) {
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
        "classroom: {scenario_name} ({description}) over {node_count} nodes -> {} student(s) ({} on time, {late} late at w{late_at})\n",
        args.students, on_time,
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
    // One accounting authority: the roster totals and the printed summary
    // come from the same arithmetic the conservation check audits.
    let totals = summary.totals();
    let lag_events = telemetry
        .drain()
        .into_iter()
        .filter(|e| matches!(e, TelemetryEvent::SubscriberLagged { .. }))
        .count();
    // The eviction count prints unconditionally: a zero is the reader's
    // proof the lag count above is exact, not merely what survived the
    // telemetry ring.
    let _ = writeln!(
        out,
        "broadcast: {} window(s) served once to {} subscriber(s); {} delivered, {} dropped, {} missed, {lag_events} lag event(s), {} telemetry event(s) evicted{}",
        summary.windows,
        summary.subscribers,
        totals.delivered,
        totals.dropped,
        totals.missed,
        telemetry.dropped(),
        if args.speed > 0 {
            format!(", paced at {}x real time", args.speed)
        } else {
            String::new()
        },
    );
    if let Some(error) = summary.conservation_error() {
        let _ = writeln!(out, "WARNING: roster accounting out of balance: {error}");
    }
    if let Some(registry) = &registry {
        let snapshot = registry.snapshot();
        let _ = writeln!(out, "metrics: {}", snapshot.one_line());
        if let Some(path) = args.metrics_json.as_deref() {
            write_metrics_json(path, &snapshot)?;
            let _ = writeln!(out, "wrote metrics snapshot to {path}");
        }
    }
    Ok(out)
}

/// Arguments for [`run_serve`] (one scenario served to remote clients).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Address to listen on (e.g. `127.0.0.1:7000`; port 0 picks a free one).
    pub listen: String,
    /// Scenario name (required unless `replay` is given).
    pub scenario: Option<String>,
    /// Recording to serve instead of generating events live.
    pub replay: Option<String>,
    /// Hold the first window until this many clients have connected
    /// (0 = start streaming immediately).
    pub students: usize,
    /// Windows to serve (default: 8 live, the whole recording on replay).
    pub windows: Option<usize>,
    /// Address-space size for live scenarios.
    pub nodes: u32,
    /// Scenario seed for live scenarios.
    pub seed: u64,
    /// Shard count for live scenarios (0 = auto).
    pub shards: usize,
    /// Routing worker threads per batch (0 = one per hardware thread); batches
    /// under `2 * tw_ingest::shard::PAR_GRAIN` events route inline.
    pub route_threads: usize,
    /// Tumbling-window duration for live scenarios.
    pub window_us: u64,
    /// Watermark reordering horizon for live scenarios (0 = strict).
    pub horizon_us: u64,
    /// Per-source clock skew for live scenarios (0 = sorted stream).
    pub skew_us: u64,
    /// Pace the serve at N x real time (0 = as fast as possible).
    pub speed: u64,
    /// Write the final serving-stack metrics snapshot here.
    pub metrics_json: Option<String>,
    /// Also stream a Stats frame to every client after each N window
    /// frames (0 = none); `connect --stats` prints them.
    pub stats_every: u64,
    /// Key-frame cadence on the wire: every K-th window is served as a
    /// self-contained full frame, the rest as sparse v3 delta frames
    /// against the previous window where smaller than in full (0 = every
    /// window full).
    pub keyframe_every: u64,
}

impl ServeArgs {
    /// Defaults matching the CLI parser, for tests and embedding callers.
    pub fn new(listen: &str) -> Self {
        ServeArgs {
            listen: listen.to_string(),
            scenario: None,
            replay: None,
            students: 0,
            windows: None,
            nodes: 256,
            seed: 7,
            shards: 0,
            route_threads: 0,
            window_us: 100_000,
            horizon_us: 0,
            skew_us: 0,
            speed: 0,
            metrics_json: None,
            stats_every: 0,
            keyframe_every: 0,
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
    use tw_core::game::{TelemetryEvent, TelemetryHub};
    use tw_core::serve::{serve, ServeConfig};

    if args.students > 10_000 {
        return Err(CliError("--students is capped at 10000".to_string()));
    }
    // One registry spans the pipeline, the hub and the server when metrics
    // output (file or wire) was asked for.
    let registry = (args.metrics_json.is_some() || args.stats_every > 0)
        .then(tw_core::metrics::MetricsRegistry::new);
    let class = open_class_stream(
        args.scenario.as_deref(),
        args.replay.as_deref(),
        args.nodes,
        args.seed,
        args.shards,
        args.route_threads,
        args.window_us,
        args.horizon_us,
        args.skew_us,
        registry.as_ref(),
    )?;
    let planned = planned_windows(class.stream.as_ref(), args.windows)?;
    let mut stream = paced(class.stream, args.speed);
    let addr = listener.local_addr().map_err(|e| CliError(e.to_string()))?;
    // The listening line streams eagerly (like paced replay) so students —
    // and scripts parsing the bound port — see the address while the serve
    // itself blocks; the accounting below stays on the buffered contract.
    println!(
        "listening on {addr}: {} ({}) over {} nodes, {} window(s){}{}",
        class.scenario,
        class.description,
        class.node_count,
        planned,
        if args.students > 0 {
            format!(", waiting for {} student(s)", args.students)
        } else {
            String::new()
        },
        if args.speed > 0 {
            format!(", paced at {}x real time", args.speed)
        } else {
            String::new()
        },
    );
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }

    let telemetry_capacity = args
        .students
        .max(1)
        .saturating_mul(planned.saturating_add(3))
        .clamp(1024, 1 << 18);
    let telemetry = TelemetryHub::with_capacity(telemetry_capacity);
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
        stats_every: args.stats_every,
        keyframe_every: args.keyframe_every,
        ..ServeConfig::default()
    };
    let summary = serve(listener, stream.as_mut(), &config, Some(telemetry.clone()))
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
    let totals = summary.broadcast.totals();
    let lag_events = telemetry
        .drain()
        .into_iter()
        .filter(|e| matches!(e, TelemetryEvent::SubscriberLagged { .. }))
        .count();
    // The eviction count prints unconditionally, like the classroom's: zero
    // means the lag count is exact.
    let _ = writeln!(
        out,
        "served {} window(s) ({} encoded bytes) to {} connection(s); {} delivered, {} dropped, {} missed, {lag_events} lag event(s), {} telemetry event(s) evicted",
        summary.windows(),
        summary.encoded_bytes,
        summary.connections(),
        totals.delivered,
        totals.dropped,
        totals.missed,
        telemetry.dropped(),
    );
    if let Some(error) = summary.broadcast.conservation_error() {
        let _ = writeln!(out, "WARNING: roster accounting out of balance: {error}");
    }
    if let Some(snapshot) = &summary.snapshot {
        let _ = writeln!(out, "metrics: {}", snapshot.one_line());
        if let Some(path) = args.metrics_json.as_deref() {
            write_metrics_json(path, snapshot)?;
            let _ = writeln!(out, "wrote metrics snapshot to {path}");
        }
    }
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
            Command::Validate {
                path: "m.json".into()
            }
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
            Command::Render {
                path: "m.json".into(),
                three_d: true,
                colors: true,
                out: Some("x.ppm".into())
            }
        );
        assert_eq!(
            parse_args(&args(&["play", "b.zip", "--seed", "9"])).unwrap(),
            Command::Play {
                path: "b.zip".into(),
                seed: 9
            }
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
            Command::Ingest {
                scenario: "ddos".into(),
                windows: 2,
                nodes: 256,
                seed: 3,
                shards: 4,
                batch: 512,
                window_us: 50_000,
                horizon_us: 0,
                skew_us: 0,
                record: None,
                keyframe_every: 0,
                json: false,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            }
        );
        // Defaults: 4 windows over 1024 nodes with auto shards.
        assert_eq!(
            parse_args(&args(&["ingest", "--scenario", "scan"])).unwrap(),
            Command::Ingest {
                scenario: "scan".into(),
                windows: 4,
                nodes: 1024,
                seed: 7,
                shards: 0,
                batch: 8192,
                window_us: 100_000,
                horizon_us: 0,
                skew_us: 0,
                record: None,
                keyframe_every: 0,
                json: false,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            }
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
            Command::Ingest {
                scenario: "ddos".into(),
                windows: 4,
                nodes: 1024,
                seed: 7,
                shards: 0,
                batch: 8192,
                window_us: 100_000,
                horizon_us: 0,
                skew_us: 0,
                record: Some("out.zip".into()),
                keyframe_every: 4,
                json: false,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            }
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
            Command::Ingest {
                scenario: "ddos".into(),
                windows: 4,
                nodes: 1024,
                seed: 7,
                shards: 0,
                batch: 8192,
                window_us: 100_000,
                horizon_us: 20_000,
                skew_us: 5_000,
                record: None,
                keyframe_every: 0,
                json: false,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            }
        );
        assert_eq!(
            parse_args(&args(&["replay", "out.zip"])).unwrap(),
            Command::Replay {
                path: "out.zip".into(),
                speed: 0
            }
        );
        assert_eq!(
            parse_args(&args(&["replay", "out.zip", "--speed", "4"])).unwrap(),
            Command::Replay {
                path: "out.zip".into(),
                speed: 4
            }
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
                scenario: Some("ddos".into()),
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
                replay: Some("c.zip".into()),
                ..ServeArgs::new("0.0.0.0:7000")
            })
        );
        assert_eq!(
            parse_args(&args(&["connect", "127.0.0.1:7000"])).unwrap(),
            Command::Connect {
                addr: "127.0.0.1:7000".into(),
                windows: None,
                stats: false
            }
        );
        assert_eq!(
            parse_args(&args(&["connect", "127.0.0.1:7000", "--windows", "5"])).unwrap(),
            Command::Connect {
                addr: "127.0.0.1:7000".into(),
                windows: Some(5),
                stats: false
            }
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
            Command::Classroom {
                scenario: Some("ddos".into()),
                replay: None,
                students: 30,
                windows: None,
                nodes: 256,
                seed: 7,
                shards: 0,
                window_us: 100_000,
                horizon_us: 0,
                skew_us: 0,
                speed: 0,
                late: None,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            }
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
            Command::Classroom {
                scenario: None,
                replay: Some("c.zip".into()),
                students: 8,
                windows: Some(4),
                nodes: 128,
                seed: 9,
                shards: 2,
                window_us: 50_000,
                horizon_us: 0,
                skew_us: 0,
                speed: 8,
                late: Some(2),
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
            }
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
            Command::Ingest {
                scenario: "ddos".into(),
                windows: 4,
                nodes: 1024,
                seed: 7,
                shards: 0,
                batch: 8192,
                window_us: 100_000,
                horizon_us: 0,
                skew_us: 0,
                record: None,
                keyframe_every: 0,
                json: true,
                metrics_json: Some("m.json".into()),
                stats_every: 2,
                route_threads: 0,
            }
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
                scenario: Some("ddos".into()),
                metrics_json: Some("m.json".into()),
                stats_every: 1,
                ..ServeArgs::new("127.0.0.1:0")
            })
        );
        assert_eq!(
            parse_args(&args(&["connect", "127.0.0.1:7000", "--stats"])).unwrap(),
            Command::Connect {
                addr: "127.0.0.1:7000".into(),
                windows: None,
                stats: true,
            }
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
            Command::Classroom {
                metrics_json,
                stats_every,
                ..
            } => {
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
            windows: 3,
            nodes: 256,
            shards: 2,
            window_us: 50_000,
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
            windows: 4,
            nodes: 256,
            shards: 2,
            window_us: 50_000,
            metrics_json: Some(path.clone()),
            stats_every: 2,
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
            scenario: Some("ddos".into()),
            replay: None,
            students: 4,
            windows: Some(3),
            nodes: 128,
            seed: 7,
            shards: 2,
            window_us: 50_000,
            horizon_us: 0,
            skew_us: 0,
            speed: 0,
            late: Some(0),
            metrics_json: Some(path.clone()),
            stats_every: 1,
            route_threads: 0,
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
        let out = run(&Command::Ingest {
            scenario: "ddos".into(),
            windows: 4,
            nodes: 256,
            seed: 7,
            shards: 2,
            batch: 2048,
            window_us: 50_000,
            horizon_us: 0,
            skew_us: 0,
            record: None,
            keyframe_every: 0,
            json: false,
            metrics_json: None,
            stats_every: 0,
            route_threads: 0,
        })
        .unwrap();
        assert!(out.contains("scenario ddos"));
        assert_eq!(out.lines().filter(|l| l.starts_with("window ")).count(), 4);
        assert!(out.contains("window   0:"));
        assert!(out.contains("window   3:"));
        assert!(out.contains("total: "));
        // Unknown scenarios name the catalog.
        let small = |scenario: &str, nodes, batch, window_us| IngestArgs {
            windows: 1,
            nodes,
            seed: 1,
            batch,
            window_us,
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
            windows: 3,
            nodes: 256,
            shards: 2,
            window_us: 50_000,
            horizon_us: 20_000,
            skew_us: 5_000,
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
            windows: 3,
            nodes: 256,
            window_us: 50_000,
            horizon_us: 100,
            skew_us: 20_000,
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

        let ingest_out = run(&Command::Ingest {
            scenario: "ddos".into(),
            windows: 8,
            nodes: 256,
            seed: 7,
            shards: 2,
            batch: 2048,
            window_us: 50_000,
            horizon_us: 0,
            skew_us: 0,
            record: Some(zip.clone()),
            keyframe_every: 0,
            json: false,
            metrics_json: None,
            stats_every: 0,
            route_threads: 0,
        })
        .unwrap();
        assert!(ingest_out.contains("recorded 8 window(s)"), "{ingest_out}");

        let replay_out = run(&Command::Replay {
            path: zip.clone(),
            speed: 0,
        })
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
            windows: 1,
            nodes: u32::MAX,
            seed: 1,
            batch: 128,
            window_us: 1_000,
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
            windows: 7,
            nodes: 256,
            shards: 2,
            batch: 2048,
            window_us: 50_000,
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
            scenario: Some("ddos".into()),
            replay: None,
            students: 6,
            windows: Some(3),
            nodes: 128,
            seed: 7,
            shards: 2,
            window_us: 50_000,
            horizon_us: 0,
            skew_us: 0,
            speed: 0,
            late: Some(1),
            metrics_json: None,
            stats_every: 0,
            route_threads: 0,
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
            windows: 4,
            nodes: 128,
            seed: 3,
            shards: 2,
            batch: 2048,
            window_us: 50_000,
            record: Some(zip.clone()),
            ..IngestArgs::new("scan")
        })
        .unwrap();
        let out = run_classroom(&ClassroomArgs {
            scenario: None,
            replay: Some(zip.clone()),
            students: 4,
            windows: None,
            nodes: 256,
            seed: 7,
            shards: 0,
            window_us: 100_000,
            horizon_us: 0,
            skew_us: 0,
            speed: 0,
            late: Some(0),
            metrics_json: None,
            stats_every: 0,
            route_threads: 0,
        })
        .unwrap();
        assert!(out.contains("scan (replayed from"), "{out}");
        assert!(out.contains("4 window(s) served once to 4 subscriber(s)"));
        assert!(out.contains("(4 on time, 0 late"), "{out}");

        // Errors: unknown scenario, missing recording, tiny address space.
        let bad = |scenario: Option<&str>, replay: Option<String>, nodes| {
            run_classroom(&ClassroomArgs {
                scenario: scenario.map(String::from),
                replay,
                students: 2,
                windows: Some(1),
                nodes,
                seed: 1,
                shards: 0,
                window_us: 1_000,
                horizon_us: 0,
                skew_us: 0,
                speed: 0,
                late: None,
                metrics_json: None,
                stats_every: 0,
                route_threads: 0,
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
            scenario: Some("ddos".into()),
            replay: None,
            students: 3,
            windows: Some(2),
            nodes: 128,
            seed: 7,
            shards: 2,
            window_us: 50_000,
            horizon_us: 20_000,
            skew_us: 5_000,
            speed: 0,
            late: Some(0),
            metrics_json: None,
            stats_every: 0,
            route_threads: 0,
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
            scenario: Some("ddos".into()),
            replay: None,
            students: 1,
            windows: Some(1),
            nodes: 128,
            seed: 7,
            shards: 1,
            window_us: 50_000,
            horizon_us: 100,
            skew_us: 20_000,
            speed: 0,
            late: Some(0),
            metrics_json: None,
            stats_every: 0,
            route_threads: 0,
        })
        .unwrap();
        assert!(
            out.contains("WARNING: horizon below the disorder bound"),
            "{out}"
        );

        // Programmatic callers hit the same skew-vs-replay guard as the parser.
        let err = run_classroom(&ClassroomArgs {
            scenario: None,
            replay: Some(zip.clone()),
            students: 1,
            windows: Some(1),
            nodes: 128,
            seed: 1,
            shards: 0,
            window_us: 1_000,
            horizon_us: 0,
            skew_us: 5_000,
            speed: 0,
            late: None,
            metrics_json: None,
            stats_every: 0,
            route_threads: 0,
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
            scenario: Some("ddos".into()),
            students: 2,
            windows: Some(3),
            nodes: 128,
            shards: 2,
            window_us: 50_000,
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
            scenario: Some("ddos".into()),
            ..ServeArgs::new("256.0.0.1:0")
        })
        .is_err());
        assert!(
            run_connect("127.0.0.1:1", None, false).is_err(),
            "nothing listens"
        );
        assert!(run_serve(&ServeArgs {
            scenario: Some("wat".into()),
            ..ServeArgs::new("127.0.0.1:0")
        })
        .unwrap_err()
        .0
        .contains("known scenarios"));
        assert!(
            run_serve(&ServeArgs {
                scenario: Some("ddos".into()),
                nodes: 4,
                ..ServeArgs::new("127.0.0.1:0")
            })
            .is_err(),
            "tiny address space"
        );
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
            scenario: Some("ddos".into()),
            students: 1,
            windows: Some(3),
            nodes: 128,
            shards: 2,
            window_us: 50_000,
            metrics_json: Some(path.clone()),
            stats_every: 1,
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

        let validate_out = run(&Command::Validate {
            path: module_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(validate_out.contains("OK"));

        let obfuscated = run(&Command::Obfuscate {
            path: module_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(obfuscated.contains("correct_answer_token"));

        let export_out = run(&Command::ExportLibrary {
            directory: dir.join("library").to_string_lossy().into_owned(),
        })
        .unwrap();
        assert_eq!(export_out.lines().count(), 6);
        let play_target = dir.join("library/ddos_attack.zip");
        assert!(play_target.exists());
        let play_out = run(&Command::Play {
            path: play_target.to_string_lossy().into_owned(),
            seed: 1,
        })
        .unwrap();
        assert!(play_out.contains("4/4 correct"));

        let missing = run(&Command::Validate {
            path: dir.join("nope.json").to_string_lossy().into_owned(),
        });
        assert!(missing.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
