//! # tw-ingest
//!
//! The sharded streaming ingest pipeline: the layer between synthetic traffic
//! generation and the Traffic Warehouse game.
//!
//! The paper's introduction cites GraphBLAS pipelines that build hypersparse
//! traffic matrices from "anonymized high performance streaming of network
//! traffic" at millions of events per second. This crate reproduces that
//! workflow end to end:
//!
//! ```text
//!  EventSource (scenario mix)      Pipeline              ShardedAccumulator
//!  ┌──────────────────────┐  pull  ┌────────────┐ route  ┌───────────────┐
//!  │ background ┐         │ ─────► │ bounded    │ ─────► │ shard 0 (COO) │
//!  │ ddos burst ├─ Mix ──►│ batch  │ batches,   │ by row │ shard 1 (COO) │
//!  │ scan sweep ┘         │        │ tumbling   │  hash  │ …             │
//!  └──────────────────────┘        │ windows    │        └──────┬────────┘
//!                                  └─────┬──────┘   parallel    │ coalesce
//!                                        ▼                      ▼
//!                                  WindowReport ◄── CsrMatrix::from_row_
//!                                  (matrix + IngestStats)  disjoint_blocks
//! ```
//!
//! * [`source`] — the pull-based [`EventSource`] trait and the scenario
//!   primitives (heavy-tailed background, DDoS burst, scan sweep, flash
//!   crowd, P2P mesh, figure-pattern replay, and the timestamp-merging
//!   [`Mix`] combinator);
//! * [`scenario`] — the named workload catalog ([`Scenario`]) reusing the
//!   `tw-patterns` attack shapes;
//! * [`shard`] — the [`ShardedAccumulator`] with its proven (and
//!   property-tested) serial-equivalence guarantee;
//! * [`window`] — tumbling [`WindowClock`], per-window [`IngestStats`] and
//!   the emitted [`WindowReport`];
//! * [`reorder`] — the watermark-based [`ReorderBuffer`]: a bounded
//!   min-timestamp buffer that absorbs out-of-order arrivals (drifting
//!   source clocks, modeled by the [`Skewed`] adapter) up to a configurable
//!   horizon instead of dropping them;
//! * [`pipeline`] — the [`Pipeline`] driver with backpressure via bounded
//!   batch pulls, the optional reordering stage, and late-event drop
//!   accounting;
//! * [`codec`] — the compact, versioned binary encoding of a
//!   [`WindowReport`] (delta-compressed CSR + stats);
//! * [`frame`] — the wire framing atop the codec (magic, version, kind,
//!   length prefix, CRC32) that the `tw-serve` network tier streams over
//!   TCP: manifest / window / close frames with typed, alloc-guarded
//!   decoding;
//! * [`record`] — [`ArchiveRecorder`] (window stream → `tw-archive` ZIP with
//!   a JSON manifest) and [`ReplaySource`] (ZIP → the identical window
//!   stream, no event generation);
//! * [`replay`] — [`SeekReplaySource`] / [`FileReplaySource`]: the same
//!   playback streamed incrementally from disk, one window entry per pull;
//! * [`stream`] — the [`WindowStream`] trait unifying every producer above
//!   (plus the rate-pacing [`Paced`] adapter), so consumers like the
//!   `tw-game` broadcast hub drive live scenarios and replays through one
//!   code path;
//! * [`testkit`] — [`SteadyWindows`], a deterministic low-churn window
//!   stream: the input on which the delta codec wins, shared by tests and
//!   benches.

pub mod codec;
pub mod frame;
pub mod pipeline;
pub mod record;
pub mod reorder;
pub mod replay;
pub mod scenario;
pub mod shard;
pub mod source;
pub mod stream;
pub mod testkit;
pub mod window;

pub use codec::{
    decode_window, decode_window_into, delta_window_len, encode_window, encode_window_delta,
    CadenceEncoder, CodecError, CodecMetrics, DecodeScratch, EncodedWindow, DELTA_WINDOW_VERSION,
    FULL_WINDOW_VERSION, MAX_DIMENSION,
};
pub use frame::{
    decode_frame, encode_close_frame, encode_delta_frame, encode_frame, encode_manifest_frame,
    encode_report_frame, encode_stats_frame, encode_window_frame, parse_frame_payload, read_frame,
    read_raw_frame, split_frame, write_frame, CloseSummary, Frame, FrameError, FrameKind,
    StreamManifest, FRAME_MAGIC, FRAME_VERSION, MAX_FRAME_LEN,
};
pub use pipeline::{Pipeline, PipelineConfig};
pub use record::{ArchiveRecorder, RecordError, RecordingMeta, ReplayManifest, ReplaySource};
pub use reorder::{PushOutcome, ReorderBuffer};
pub use replay::{FileReplaySource, SeekReplaySource};
pub use scenario::Scenario;
pub use shard::{window_matrix, MergeTotals, ShardedAccumulator};
pub use source::{
    collect_events, DdosBurstSource, EventSource, FlashCrowdSource, HeavyTailSource, Limit, Mix,
    P2pMeshSource, PatternSource, ScanSweepSource, Skewed,
};
pub use stream::{collect_stream, Paced, StreamError, WindowStream};
pub use testkit::SteadyWindows;
pub use window::{IngestStats, WindowClock, WindowReport};

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance-criteria flow: a named scenario, several windows, stats.
    #[test]
    fn end_to_end_scenario_run() {
        let source = Scenario::Ddos.source(512, 11);
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            shard_count: 4,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        let mut pipeline = Pipeline::new(source, config);
        let reports = pipeline.run(4);
        assert_eq!(reports.len(), 4);
        let total_events: u64 = reports.iter().map(|r| r.stats.events).sum();
        assert!(
            total_events > 10_000,
            "a DDoS scenario is busy, got {total_events}"
        );
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.stats.window_index, i as u64);
            assert_eq!(report.matrix.shape(), (512, 512));
            assert_eq!(report.stats.nnz, report.matrix.nnz());
            assert!(!report.stats.summary().is_empty());
        }
    }
}
