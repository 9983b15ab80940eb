//! The benchmark's workloads and the inputs each session prepares.
//!
//! | workload | feed | loads | bypasses |
//! |---|---|---|---|
//! | `pregen-skewed` | `Scenario::Mixed` through `skewed_source`, pre-generated in setup | reorder, dense-duplicate coalesce, v3 delta encode/decode | generators (they run in setup) |
//! | `replay-paced` | a `ddos` recording made in setup, served on an open-loop schedule | archive read/decode, encode, hub, socket, client decode | generators, pipeline |

use std::time::Duration;
use tw_ingest::{
    collect_events, ArchiveRecorder, EventSource, Pipeline, PipelineConfig, RecordingMeta, Scenario,
};
use tw_matrix::stream::PacketEvent;

/// Where a session's windows come from.
#[derive(Debug, Clone)]
pub enum Feed {
    /// The scenario skewed by up to `skew_us` per source address, generated
    /// into memory during setup and replayed by a bench-side source; the
    /// pipeline's reorder horizon is the skew's maximum disorder.
    Pregen {
        scenario: Scenario,
        events: usize,
        skew_us: u64,
    },
    /// `windows` windows of the scenario recorded into an in-memory archive
    /// during setup, replayed through `SeekReplaySource` with window `k` due
    /// at `t0 + k * interval` (open loop: the schedule never slows).
    Replay {
        scenario: Scenario,
        windows: usize,
        interval: Duration,
    },
}

/// Everything that defines one session of a workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub feed: Feed,
    /// Address-space size (matrix dimension).
    pub nodes: u32,
    /// Tumbling-window length in simulated microseconds.
    pub window_us: u64,
    /// Student connections, each decoding every window.
    pub students: usize,
    /// `ServeConfig::keyframe_every`: 0 serves full v2 frames, K > 0 v3
    /// deltas between key frames.
    pub keyframe_every: u64,
    /// Per-connection frame channel depth in the hub. The workloads set it
    /// above their windows per session: a slow student shows as lag, and
    /// a drop can only come from a broken hub.
    pub channel_capacity: usize,
    /// Pipeline `shard_count` and `route_threads`.
    pub threads: usize,
}

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PregenSkewed,
    ReplayPaced,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PregenSkewed, Workload::ReplayPaced];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PregenSkewed => "pregen-skewed",
            Workload::ReplayPaced => "replay-paced",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's session shape. Thread and student counts never exceed
    /// `nproc`. Each session's timed phase lasts about a second, so a run
    /// holds dozens of sessions and its calmer half can step around bursts
    /// of host steal.
    pub fn shape(self, nproc: usize) -> Shape {
        let nproc = nproc.max(1);
        match self {
            Workload::PregenSkewed => Shape {
                feed: Feed::Pregen {
                    scenario: Scenario::Mixed,
                    events: 5_000_000,
                    skew_us: 50_000,
                },
                nodes: 1024,
                window_us: 100_000,
                students: 2.min(nproc),
                keyframe_every: 8,
                channel_capacity: 2048,
                threads: nproc,
            },
            Workload::ReplayPaced => Shape {
                feed: Feed::Replay {
                    scenario: Scenario::Ddos,
                    windows: 1_000,
                    interval: Duration::from_micros(1_000),
                },
                nodes: 1024,
                window_us: 20_000,
                students: 2.min(nproc),
                keyframe_every: 0,
                channel_capacity: 2048,
                threads: nproc,
            },
        }
    }
}

/// A session's input, built during setup.
pub enum Prepared {
    /// Pre-generated events and the reorder horizon that absorbs their skew.
    Pregen {
        events: Vec<PacketEvent>,
        horizon_us: u64,
    },
    /// An in-memory recording plus the totals its windows must replay with.
    Replay {
        archive: Vec<u8>,
        events: u64,
        dropped_late: u64,
    },
}

impl Shape {
    /// Pipeline settings for this shape (`horizon_us = 0` is strict mode).
    pub fn pipeline_config(&self, horizon_us: u64) -> PipelineConfig {
        PipelineConfig {
            window_us: self.window_us,
            shard_count: self.threads,
            route_threads: self.threads,
            reorder_horizon_us: horizon_us,
            ..PipelineConfig::default()
        }
    }

    /// The scenario feeding this shape.
    pub fn scenario(&self) -> Scenario {
        match &self.feed {
            Feed::Pregen { scenario, .. } | Feed::Replay { scenario, .. } => *scenario,
        }
    }

    /// Build the session's input from `seed`: the same seed gives the same
    /// input.
    pub fn prepare(&self, seed: u64) -> Result<Prepared, String> {
        match &self.feed {
            Feed::Pregen {
                scenario,
                events,
                skew_us,
            } => {
                let (mut source, horizon_us) = scenario.skewed_source(self.nodes, seed, *skew_us);
                let events = collect_events(source.as_mut(), *events);
                Ok(Prepared::Pregen { events, horizon_us })
            }
            Feed::Replay {
                scenario, windows, ..
            } => {
                let mut pipeline =
                    Pipeline::new(scenario.source(self.nodes, seed), self.pipeline_config(0));
                let mut recorder = ArchiveRecorder::new(RecordingMeta {
                    scenario: scenario.name().to_string(),
                    seed,
                    node_count: self.nodes as usize,
                    window_us: self.window_us,
                    keyframe_every: 0,
                });
                let (mut events, mut dropped_late) = (0u64, 0u64);
                for _ in 0..*windows {
                    let report = pipeline
                        .next_window()
                        .ok_or("the scenario generator ended early")?;
                    recorder.record(&report).map_err(|e| e.to_string())?;
                    events += report.stats.events;
                    dropped_late += report.stats.dropped_late;
                    pipeline.recycle_window(report.matrix);
                }
                let archive = recorder.finish().map_err(|e| e.to_string())?;
                Ok(Prepared::Replay {
                    archive,
                    events,
                    dropped_late,
                })
            }
        }
    }
}

/// Replays a pre-generated event buffer, in order, in bounded pulls.
pub struct PregenSource {
    events: Vec<PacketEvent>,
    cursor: usize,
    node_count: u32,
}

impl PregenSource {
    pub fn new(events: Vec<PacketEvent>, node_count: u32) -> Self {
        PregenSource {
            events,
            cursor: 0,
            node_count,
        }
    }
}

impl EventSource for PregenSource {
    fn node_count(&self) -> u32 {
        self.node_count
    }

    fn pull(&mut self, max: usize, out: &mut Vec<PacketEvent>) -> usize {
        let end = self.events.len().min(self.cursor + max);
        out.extend_from_slice(&self.events[self.cursor..end]);
        let pulled = end - self.cursor;
        self.cursor = end;
        pulled
    }
}
