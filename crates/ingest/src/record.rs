//! Record a scenario's window stream once; replay it in class forever.
//!
//! The paper distributes lessons as "a zip file containing multiple JSON
//! files" (§II); this module applies the same packaging to live scenarios. An
//! [`ArchiveRecorder`] streams every [`WindowReport`] a [`Pipeline`] emits
//! into a `tw-archive` ZIP — one [`codec`](crate::codec)-encoded entry per
//! window plus a human-readable `manifest.json` — and a [`ReplaySource`]
//! reads the ZIP back and re-emits the identical window stream, so a
//! classroom can watch the same DDoS unfold without regenerating a million
//! events (and without the generation hardware).
//!
//! ```
//! use tw_ingest::{ArchiveRecorder, Pipeline, PipelineConfig, RecordingMeta, ReplaySource, Scenario};
//!
//! // Record four windows of the DDoS scenario.
//! let config = PipelineConfig { window_us: 50_000, batch_size: 4_096, ..PipelineConfig::default() };
//! let mut pipeline = Pipeline::new(Scenario::Ddos.source(128, 7), config);
//! let mut recorder = ArchiveRecorder::new(RecordingMeta {
//!     scenario: "ddos".to_string(),
//!     seed: 7,
//!     node_count: 128,
//!     window_us: 50_000,
//!     keyframe_every: 0,
//! });
//! let reports = pipeline.run(4);
//! for report in &reports {
//!     recorder.record(report).unwrap();
//! }
//! let bytes = recorder.finish().unwrap();
//!
//! // Replay them: the stream is identical, cell for cell.
//! let mut replay = ReplaySource::parse(&bytes).unwrap();
//! assert_eq!(replay.manifest().scenario, "ddos");
//! for recorded in &reports {
//!     let replayed = replay.next_window().unwrap().unwrap();
//!     assert_eq!(replayed.matrix, recorded.matrix);
//!     assert_eq!(replayed.stats, recorded.stats);
//! }
//! assert!(replay.next_window().unwrap().is_none());
//! ```

use crate::codec::{decode_window_into, CadenceEncoder, CodecError, DecodeScratch};
use crate::window::{IngestStats, WindowReport};
use std::fmt;
use tw_archive::{ArchiveError, ZipReader, ZipWriter};
use tw_json::{Map, Value};
use tw_metrics::MetricsRegistry;

/// Name of the JSON manifest entry inside a recording.
pub const MANIFEST_ENTRY: &str = "manifest.json";
/// The manifest format identifier.
pub const MANIFEST_FORMAT: &str = "tw-replay";
/// The manifest version written for pure full-window recordings
/// (`keyframe_every == 0`): byte-compatible with pre-delta readers.
pub const MANIFEST_VERSION: i64 = 1;
/// The manifest version written once a recording contains delta windows.
/// Pre-delta readers reject it cleanly instead of mis-decoding entries.
pub const MANIFEST_VERSION_DELTA: i64 = 2;

/// Errors produced while recording or replaying a window archive.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The underlying ZIP container failed.
    Archive(ArchiveError),
    /// A window entry failed to decode.
    Codec(CodecError),
    /// The manifest is missing, malformed, or inconsistent; the message
    /// names the violation.
    Manifest(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Archive(e) => write!(f, "recording archive: {e}"),
            RecordError::Codec(e) => write!(f, "recorded window: {e}"),
            RecordError::Manifest(msg) => write!(f, "recording manifest: {msg}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<ArchiveError> for RecordError {
    fn from(e: ArchiveError) -> Self {
        RecordError::Archive(e)
    }
}

impl From<CodecError> for RecordError {
    fn from(e: CodecError) -> Self {
        RecordError::Codec(e)
    }
}

/// What was recorded: the scenario identity a replay needs to label itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingMeta {
    /// Scenario name (a [`Scenario`](crate::Scenario) catalog name, or any
    /// free-form label for custom sources).
    pub scenario: String,
    /// The seed the scenario ran with.
    pub seed: u64,
    /// The address-space size (matrix dimension) of every window.
    pub node_count: usize,
    /// Tumbling-window duration in simulated microseconds.
    pub window_us: u64,
    /// Delta-encoding cadence: every `K`th window is a full key frame and
    /// each window between is a delta against its predecessor where that
    /// is smaller than the window in full (see [`CadenceEncoder`]); `0`
    /// records every window in full (pre-delta archive format).
    pub keyframe_every: u64,
}

/// The entry name of a recorded window.
fn window_entry_name(window_index: u64) -> String {
    format!("windows/{window_index:08}.bin")
}

/// Streams [`WindowReport`]s into an in-memory ZIP recording.
///
/// Entries are written in emission order and named by window index
/// (`windows/00000042.bin`), so standard ZIP tools list them in playback
/// order; [`ArchiveRecorder::finish`] appends `manifest.json` with the
/// scenario identity and per-window statistics.
#[derive(Debug)]
pub struct ArchiveRecorder {
    writer: ZipWriter,
    meta: RecordingMeta,
    stats: Vec<IngestStats>,
    encoder: CadenceEncoder,
}

impl ArchiveRecorder {
    /// Start a recording for the given scenario identity.
    pub fn new(meta: RecordingMeta) -> Self {
        ArchiveRecorder {
            writer: ZipWriter::new(),
            encoder: CadenceEncoder::new(meta.keyframe_every),
            meta,
            stats: Vec::new(),
        }
    }

    /// Count encoded key frames, deltas, and bytes saved into the `codec.*`
    /// counters of the given registry.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.encoder.instrument(registry);
    }

    /// Append one window to the recording.
    ///
    /// With a nonzero `keyframe_every` cadence `K`, every `K`th window (in
    /// recording order, starting with the first) is stored in full and each
    /// window between as a delta against its predecessor when the delta is
    /// the smaller encoding.
    pub fn record(&mut self, report: &WindowReport) -> Result<(), RecordError> {
        let encoded = self.encoder.encode(report);
        let name = window_entry_name(report.stats.window_index);
        if let Err(e) = self.writer.add_file(&name, &encoded.bytes) {
            self.encoder.rewind();
            return Err(e.into());
        }
        self.stats.push(report.stats.clone());
        Ok(())
    }

    /// Windows recorded so far.
    pub fn windows_recorded(&self) -> usize {
        self.stats.len()
    }

    /// Finish the recording: write the manifest and return the ZIP bytes.
    pub fn finish(mut self) -> Result<Vec<u8>, RecordError> {
        let manifest = self.manifest_json();
        self.writer.add_file(MANIFEST_ENTRY, manifest.as_bytes())?;
        Ok(self.writer.finish()?)
    }

    fn manifest_json(&self) -> String {
        let mut root = Map::new();
        root.insert("format", MANIFEST_FORMAT);
        // K=0 recordings keep the version-1 manifest so pre-delta readers
        // replay them unchanged; delta recordings bump the version so those
        // readers reject the archive instead of choking on a delta entry.
        let version = if self.meta.keyframe_every == 0 {
            MANIFEST_VERSION
        } else {
            MANIFEST_VERSION_DELTA
        };
        root.insert("version", version);
        root.insert("scenario", self.meta.scenario.as_str());
        // Seeds are full u64s; JSON numbers here are i64/f64, so the seed is
        // carried as a decimal string to stay lossless.
        root.insert("seed", self.meta.seed.to_string());
        root.insert("node_count", self.meta.node_count);
        root.insert(
            "window_us",
            Value::from(i64::try_from(self.meta.window_us).unwrap_or(i64::MAX)),
        );
        root.insert(
            "keyframe_every",
            Value::from(i64::try_from(self.meta.keyframe_every).unwrap_or(i64::MAX)),
        );
        root.insert("window_count", self.stats.len());
        let windows: Vec<Value> = self
            .stats
            .iter()
            .map(|s| {
                let mut w = Map::new();
                w.insert("entry", window_entry_name(s.window_index).as_str());
                w.insert(
                    "window_index",
                    Value::from(i64::try_from(s.window_index).unwrap_or(i64::MAX)),
                );
                w.insert(
                    "events",
                    Value::from(i64::try_from(s.events).unwrap_or(i64::MAX)),
                );
                w.insert(
                    "packets",
                    Value::from(i64::try_from(s.packets).unwrap_or(i64::MAX)),
                );
                w.insert("nnz", s.nnz);
                w.insert(
                    "dropped_late",
                    Value::from(i64::try_from(s.dropped_late).unwrap_or(i64::MAX)),
                );
                w.insert(
                    "elapsed_us",
                    Value::from(i64::try_from(s.elapsed.as_micros()).unwrap_or(i64::MAX)),
                );
                Value::Object(w)
            })
            .collect();
        root.insert("windows", Value::Array(windows));
        tw_json::to_string_pretty(&Value::Object(root))
    }
}

/// The parsed identity of a recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayManifest {
    /// Scenario name as recorded.
    pub scenario: String,
    /// The seed the scenario ran with.
    pub seed: u64,
    /// The address-space size of every window.
    pub node_count: usize,
    /// Tumbling-window duration in simulated microseconds.
    pub window_us: u64,
    /// Delta cadence the recording was made with (`0` = all full windows).
    pub keyframe_every: u64,
    /// Window entry names in playback order.
    pub entries: Vec<String>,
}

impl ReplayManifest {
    /// Number of recorded windows.
    pub fn window_count(&self) -> usize {
        self.entries.len()
    }
}

/// Re-emits a recorded window stream from ZIP bytes.
///
/// Parsing validates the container (every CRC) and the manifest once;
/// windows are then decoded lazily, one per [`ReplaySource::next_window`]
/// call, in the order they were recorded — the same pull discipline as
/// [`Pipeline::next_window`](crate::Pipeline::next_window), so anything that
/// can follow a live pipeline (a
/// [`LiveWarehouse`](../../tw_game/live/struct.LiveWarehouse.html), a
/// `GameSession`) can follow a replay unchanged.
#[derive(Debug)]
pub struct ReplaySource<'a> {
    reader: ZipReader<'a>,
    manifest: ReplayManifest,
    cursor: usize,
    /// Delta base + recycled decode buffers: consecutive windows decode
    /// into reused allocations, and delta entries patch the previous one.
    scratch: DecodeScratch,
}

impl<'a> ReplaySource<'a> {
    /// Parse a recording from ZIP bytes (the caller keeps the bytes alive;
    /// window payloads are decoded zero-copy out of them).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, RecordError> {
        let reader = ZipReader::parse(bytes)?;
        let manifest_text = reader
            .read_text(MANIFEST_ENTRY)
            .map_err(|_| RecordError::Manifest(format!("missing {MANIFEST_ENTRY}")))?;
        let manifest = parse_manifest(manifest_text, |name| reader.read(name).is_ok())?;
        Ok(ReplaySource {
            reader,
            manifest,
            cursor: 0,
            scratch: DecodeScratch::new(),
        })
    }

    /// The recording's identity and per-entry table.
    pub fn manifest(&self) -> &ReplayManifest {
        &self.manifest
    }

    /// Windows not yet replayed.
    pub fn remaining(&self) -> usize {
        self.manifest.entries.len() - self.cursor
    }

    /// Decode and emit the next recorded window; `Ok(None)` once the
    /// recording is exhausted.
    pub fn next_window(&mut self) -> Result<Option<WindowReport>, RecordError> {
        let Some(entry) = self.manifest.entries.get(self.cursor) else {
            return Ok(None);
        };
        let bytes = self.reader.read(entry)?;
        let report = decode_window_into(bytes, &mut self.scratch)?;
        if report.matrix.shape() != (self.manifest.node_count, self.manifest.node_count) {
            return Err(RecordError::Manifest(format!(
                "window {entry} has shape {:?}, manifest says {} nodes",
                report.matrix.shape(),
                self.manifest.node_count
            )));
        }
        self.cursor += 1;
        Ok(Some(report))
    }

    /// Decode every remaining window into a vector.
    pub fn collect_windows(&mut self) -> Result<Vec<WindowReport>, RecordError> {
        let mut out = Vec::with_capacity(self.remaining());
        while let Some(report) = self.next_window()? {
            out.push(report);
        }
        Ok(out)
    }
}

/// In-memory recording playback as a [`WindowStream`](crate::WindowStream).
impl crate::stream::WindowStream for ReplaySource<'_> {
    fn next_window(&mut self) -> Result<Option<WindowReport>, crate::stream::StreamError> {
        ReplaySource::next_window(self).map_err(Into::into)
    }

    fn node_count(&self) -> usize {
        self.manifest.node_count
    }

    fn window_us(&self) -> u64 {
        self.manifest.window_us
    }

    fn remaining_windows(&self) -> Option<usize> {
        Some(self.remaining())
    }
}

fn manifest_u64(root: &Value, key: &str) -> Result<u64, RecordError> {
    root.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| RecordError::Manifest(format!("missing or non-integer {key:?}")))
}

/// Parse and validate a recording manifest. `has_entry` answers whether the
/// backing archive holds a named entry, so the same validation serves both
/// the in-memory [`ReplaySource`] and the seekable
/// [`SeekReplaySource`](crate::replay::SeekReplaySource).
pub(crate) fn parse_manifest(
    text: &str,
    has_entry: impl Fn(&str) -> bool,
) -> Result<ReplayManifest, RecordError> {
    let root = tw_json::parse(text)
        .map_err(|e| RecordError::Manifest(format!("{MANIFEST_ENTRY}: {e}")))?;
    let format = root.get("format").and_then(Value::as_str).unwrap_or("");
    if format != MANIFEST_FORMAT {
        return Err(RecordError::Manifest(format!(
            "format is {format:?}, expected {MANIFEST_FORMAT:?}"
        )));
    }
    let version = root.get("version").and_then(Value::as_i64).unwrap_or(0);
    if !(MANIFEST_VERSION..=MANIFEST_VERSION_DELTA).contains(&version) {
        return Err(RecordError::Manifest(format!(
            "manifest version {version} is not in the supported range \
             {MANIFEST_VERSION}..={MANIFEST_VERSION_DELTA}"
        )));
    }
    let scenario = root
        .get("scenario")
        .and_then(Value::as_str)
        .ok_or_else(|| RecordError::Manifest("missing scenario name".to_string()))?
        .to_string();
    let seed = root
        .get("seed")
        .and_then(Value::as_str)
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| RecordError::Manifest("missing or non-decimal seed".to_string()))?;
    let node_count = usize::try_from(manifest_u64(&root, "node_count")?)
        .map_err(|_| RecordError::Manifest("node_count does not fit".to_string()))?;
    let window_us = manifest_u64(&root, "window_us")?;
    // Version-1 recordings predate the key; absent means all-full windows.
    let keyframe_every = root
        .get("keyframe_every")
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| RecordError::Manifest("non-integer keyframe_every".to_string()))
        })
        .transpose()?
        .unwrap_or(0);
    let declared = manifest_u64(&root, "window_count")? as usize;

    let windows = root
        .get("windows")
        .and_then(Value::as_array)
        .ok_or_else(|| RecordError::Manifest("missing windows table".to_string()))?;
    if windows.len() != declared {
        return Err(RecordError::Manifest(format!(
            "window_count says {declared} but the table lists {}",
            windows.len()
        )));
    }
    let mut entries = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter().enumerate() {
        let entry = w
            .get("entry")
            .and_then(Value::as_str)
            .ok_or_else(|| RecordError::Manifest(format!("window {i} has no entry name")))?;
        if !has_entry(entry) {
            return Err(RecordError::Manifest(format!(
                "window table names {entry:?} but the archive has no such entry"
            )));
        }
        entries.push(entry.to_string());
    }
    Ok(ReplayManifest {
        scenario,
        seed,
        node_count,
        window_us,
        keyframe_every,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crate::scenario::Scenario;
    use crate::testkit::SteadyWindows;

    /// Record `reports` (128 nodes, seed 7) at the given cadence, counting
    /// `codec.*` into `registry` when one is given.
    fn record_at(
        scenario: &str,
        reports: &[WindowReport],
        keyframe_every: u64,
        registry: Option<&MetricsRegistry>,
    ) -> Vec<u8> {
        let mut recorder = ArchiveRecorder::new(RecordingMeta {
            scenario: scenario.to_string(),
            seed: 7,
            node_count: 128,
            window_us: 50_000,
            keyframe_every,
        });
        if let Some(registry) = registry {
            recorder.instrument(registry);
        }
        for report in reports {
            recorder.record(report).unwrap();
        }
        assert_eq!(recorder.windows_recorded(), reports.len());
        recorder.finish().unwrap()
    }

    /// `windows` bursty ddos windows and their full-window recording.
    fn record_ddos(windows: usize) -> (Vec<WindowReport>, Vec<u8>) {
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            shard_count: 2,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        let reports = Pipeline::new(Scenario::Ddos.source(128, 7), config).run(windows);
        let bytes = record_at("ddos", &reports, 0, None);
        (reports, bytes)
    }

    /// `windows` steady windows: the input on which deltas win.
    fn steady(windows: usize) -> Vec<WindowReport> {
        SteadyWindows::new(128, 1_000, windows, 7).collect()
    }

    #[test]
    fn recording_replays_cell_for_cell() {
        let (reports, bytes) = record_ddos(4);
        let mut replay = ReplaySource::parse(&bytes).unwrap();
        assert_eq!(replay.manifest().scenario, "ddos");
        assert_eq!(replay.manifest().seed, 7);
        assert_eq!(replay.manifest().node_count, 128);
        assert_eq!(replay.manifest().window_us, 50_000);
        assert_eq!(replay.manifest().window_count(), 4);
        assert_eq!(replay.remaining(), 4);
        for recorded in &reports {
            let replayed = replay.next_window().unwrap().unwrap();
            assert_eq!(replayed.matrix, recorded.matrix);
            assert_eq!(replayed.stats, recorded.stats);
        }
        assert_eq!(replay.remaining(), 0);
        assert!(replay.next_window().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn collect_windows_drains_the_recording() {
        let (reports, bytes) = record_ddos(3);
        let mut replay = ReplaySource::parse(&bytes).unwrap();
        let windows = replay.collect_windows().unwrap();
        assert_eq!(windows.len(), reports.len());
        assert!(replay.collect_windows().unwrap().is_empty());
    }

    #[test]
    fn recordings_replay_identically_and_are_standard_zips() {
        // Two captures of the same seeded scenario replay the same matrices
        // (the raw bytes differ only in the wall-clock `elapsed` stats).
        let (_, a) = record_ddos(2);
        let (_, b) = record_ddos(2);
        let windows_a = ReplaySource::parse(&a).unwrap().collect_windows().unwrap();
        let windows_b = ReplaySource::parse(&b).unwrap().collect_windows().unwrap();
        assert_eq!(windows_a.len(), 2);
        for (wa, wb) in windows_a.iter().zip(&windows_b) {
            assert_eq!(wa.matrix, wb.matrix);
            assert_eq!(wa.stats.events, wb.stats.events);
            assert_eq!(wa.stats.packets, wb.stats.packets);
        }
        let reader = ZipReader::parse(&a).unwrap();
        let names: Vec<&str> = reader.entry_names().collect();
        assert_eq!(
            names,
            vec![
                "windows/00000000.bin",
                "windows/00000001.bin",
                "manifest.json"
            ]
        );
    }

    #[test]
    fn manifest_is_human_readable_json() {
        let (reports, bytes) = record_ddos(2);
        let reader = ZipReader::parse(&bytes).unwrap();
        let manifest = tw_json::parse(reader.read_text(MANIFEST_ENTRY).unwrap()).unwrap();
        assert_eq!(
            manifest.get("format").and_then(Value::as_str),
            Some(MANIFEST_FORMAT)
        );
        assert_eq!(
            manifest.get("window_count").and_then(Value::as_usize),
            Some(2)
        );
        let table = manifest.get("windows").and_then(Value::as_array).unwrap();
        assert_eq!(
            table[0].get("events").and_then(Value::as_u64),
            Some(reports[0].stats.events)
        );
        assert_eq!(
            table[1].get("nnz").and_then(Value::as_usize),
            Some(reports[1].stats.nnz)
        );
    }

    #[test]
    fn duplicate_window_indices_are_rejected_at_record_time() {
        let (reports, _) = record_ddos(1);
        let mut recorder = ArchiveRecorder::new(RecordingMeta {
            scenario: "ddos".to_string(),
            seed: 7,
            node_count: 128,
            window_us: 50_000,
            keyframe_every: 0,
        });
        recorder.record(&reports[0]).unwrap();
        assert!(matches!(
            recorder.record(&reports[0]),
            Err(RecordError::Archive(ArchiveError::DuplicateEntry(_)))
        ));

        // A rejected window never becomes a delta base, and the cadence
        // counts only stored windows: a steady chain that keeps recording
        // after the rejection still replays and seeks cell for cell.
        let steady = steady(5);
        let mut recorder = ArchiveRecorder::new(RecordingMeta {
            keyframe_every: 2,
            ..recorder.meta.clone()
        });
        let mut imposter = steady[2].clone();
        imposter.stats.window_index = 1;
        for (i, report) in steady.iter().enumerate() {
            recorder.record(report).unwrap();
            if i == 1 {
                assert!(recorder.record(&imposter).is_err());
            }
        }
        let bytes = recorder.finish().unwrap();
        let replayed = ReplaySource::parse(&bytes)
            .unwrap()
            .collect_windows()
            .unwrap();
        assert_eq!(replayed, steady);
        let mut seeker = crate::replay::SeekReplaySource::new(std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(seeker.seek(3).unwrap(), 2);
        assert_eq!(seeker.next_window().unwrap().as_ref(), Some(&steady[3]));
    }

    #[test]
    fn replay_rejects_archives_without_a_manifest() {
        let mut w = ZipWriter::new();
        w.add_file("windows/00000000.bin", b"junk").unwrap();
        let bytes = w.finish().unwrap();
        assert!(matches!(
            ReplaySource::parse(&bytes),
            Err(RecordError::Manifest(msg)) if msg.contains(MANIFEST_ENTRY)
        ));
    }

    #[test]
    fn replay_rejects_inconsistent_manifests() {
        let (_, bytes) = record_ddos(2);
        let reader = ZipReader::parse(&bytes).unwrap();
        let manifest = reader.read_text(MANIFEST_ENTRY).unwrap();

        // Rebuild the archive with a manifest naming a missing window entry.
        let mut w = ZipWriter::new();
        for entry in reader.entries() {
            if entry.name != MANIFEST_ENTRY {
                w.add_file(&entry.name, reader.read(&entry.name).unwrap())
                    .unwrap();
            }
        }
        let tampered = manifest.replace("windows/00000001.bin", "windows/00000009.bin");
        w.add_file(MANIFEST_ENTRY, tampered.as_bytes()).unwrap();
        let bytes = w.finish().unwrap();
        assert!(matches!(
            ReplaySource::parse(&bytes),
            Err(RecordError::Manifest(msg)) if msg.contains("00000009")
        ));
    }

    #[test]
    fn replay_rejects_corrupt_window_payloads() {
        let (_, bytes) = record_ddos(1);
        let reader = ZipReader::parse(&bytes).unwrap();
        let manifest = reader.read_text(MANIFEST_ENTRY).unwrap().to_string();
        let mut w = ZipWriter::new();
        w.add_file("windows/00000000.bin", b"not an encoded window")
            .unwrap();
        w.add_file(MANIFEST_ENTRY, manifest.as_bytes()).unwrap();
        let bytes = w.finish().unwrap();
        let mut replay = ReplaySource::parse(&bytes).unwrap();
        assert!(matches!(
            replay.next_window(),
            Err(RecordError::Codec(CodecError::BadMagic))
        ));
    }

    #[test]
    fn delta_recordings_replay_cell_for_cell() {
        let (reports, _) = record_ddos(6);
        for cadence in [1u64, 2, 3, 5, 10] {
            let bytes = record_at("ddos", &reports, cadence, None);
            let mut replay = ReplaySource::parse(&bytes).unwrap();
            assert_eq!(replay.manifest().keyframe_every, cadence);
            for recorded in &reports {
                let replayed = replay.next_window().unwrap().unwrap();
                assert_eq!(replayed.matrix, recorded.matrix);
                assert_eq!(replayed.stats.window_index, recorded.stats.window_index);
                assert_eq!(replayed.stats.events, recorded.stats.events);
            }
            assert!(replay.next_window().unwrap().is_none());
        }
    }

    #[test]
    fn deltas_shrink_steady_recordings() {
        // A steady stream — a fixed hot set with ~2% churn per window — is
        // where the delta codec earns its keep: each non-key entry encodes
        // the changed cells instead of a thousand.
        let steady_reports = steady(8);
        let full = record_at("steady", &steady_reports, 0, None);
        let delta = record_at("steady", &steady_reports, 4, None);
        assert!(
            (delta.len() as f64) < 0.7 * full.len() as f64,
            "delta archive {} should be at least 30% smaller than {}",
            delta.len(),
            full.len()
        );
        // And it still replays cell-for-cell.
        let mut replay = ReplaySource::parse(&delta).unwrap();
        for want in &steady_reports {
            let got = replay.next_window().unwrap().unwrap();
            assert_eq!(got.matrix, want.matrix);
        }
    }

    #[test]
    fn delta_cadence_places_keyframes_where_the_manifest_says() {
        // Cadence 3 over 7 steady windows: entries 0, 3, 6 are full (v2
        // codec bytes), everything else is a v3 delta. The manifest bumps
        // to the delta version so pre-delta readers reject it cleanly.
        use crate::codec::{DELTA_WINDOW_VERSION, FULL_WINDOW_VERSION};
        let bytes = record_at("steady", &steady(7), 3, None);
        let reader = ZipReader::parse(&bytes).unwrap();
        let manifest = tw_json::parse(reader.read_text(MANIFEST_ENTRY).unwrap()).unwrap();
        assert_eq!(
            manifest.get("version").and_then(Value::as_i64),
            Some(MANIFEST_VERSION_DELTA)
        );
        assert_eq!(
            manifest.get("keyframe_every").and_then(Value::as_u64),
            Some(3)
        );
        for i in 0..7u64 {
            let entry = reader.read(&window_entry_name(i)).unwrap();
            let want = if i % 3 == 0 {
                FULL_WINDOW_VERSION
            } else {
                DELTA_WINDOW_VERSION
            };
            assert_eq!(entry[4], want, "entry {i}");
        }
    }

    #[test]
    fn zero_cadence_recordings_keep_the_version_one_manifest() {
        // K=0 must stay readable by pre-delta builds: version 1, and every
        // entry a full v2 window.
        use crate::codec::FULL_WINDOW_VERSION;
        let (_, bytes) = record_ddos(2);
        let reader = ZipReader::parse(&bytes).unwrap();
        let manifest = tw_json::parse(reader.read_text(MANIFEST_ENTRY).unwrap()).unwrap();
        assert_eq!(
            manifest.get("version").and_then(Value::as_i64),
            Some(MANIFEST_VERSION)
        );
        for i in 0..2u64 {
            assert_eq!(
                reader.read(&window_entry_name(i)).unwrap()[4],
                FULL_WINDOW_VERSION
            );
        }
        // A manifest from before the delta era (no keyframe_every key at
        // all) parses with cadence 0.
        let stripped: String = reader
            .read_text(MANIFEST_ENTRY)
            .unwrap()
            .lines()
            .filter(|l| !l.contains("keyframe_every"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = parse_manifest(&stripped, |_| true).unwrap();
        assert_eq!(parsed.keyframe_every, 0);
    }

    #[test]
    fn future_manifest_versions_are_rejected() {
        let (_, bytes) = record_ddos(1);
        let reader = ZipReader::parse(&bytes).unwrap();
        let text = reader.read_text(MANIFEST_ENTRY).unwrap();
        let future = text.replace(
            &format!("\"version\": {MANIFEST_VERSION}"),
            &format!("\"version\": {}", MANIFEST_VERSION_DELTA + 1),
        );
        assert_ne!(future, text, "replacement must hit the version line");
        assert!(matches!(
            parse_manifest(&future, |_| true),
            Err(RecordError::Manifest(msg)) if msg.contains("version")
        ));
    }

    #[test]
    fn recorder_metrics_count_keyframes_deltas_and_savings() {
        use crate::codec::{encode_window, encode_window_delta, FULL_WINDOW_VERSION};
        let metered = |reports: &[WindowReport]| {
            let registry = MetricsRegistry::new();
            let bytes = record_at("metered", reports, 2, Some(&registry));
            (registry.snapshot(), bytes)
        };

        // Steady: key frames at windows 0, 2, 4 and deltas at 1, 3, each
        // saving its full length minus its delta length.
        let steady = steady(5);
        let (snapshot, _) = metered(&steady);
        assert_eq!(snapshot.counter("codec.keyframes"), 3);
        assert_eq!(snapshot.counter("codec.delta_windows"), 2);
        let saved: usize = [1, 3]
            .iter()
            .map(|&i| {
                encode_window(&steady[i]).len()
                    - encode_window_delta(&steady[i - 1], &steady[i]).len()
            })
            .sum();
        assert_eq!(snapshot.counter("codec.bytes_saved"), saved as u64);

        // Bursty ddos: every delta is larger than its window in full, so
        // all five entries fall back to full v2 windows and nothing is
        // saved.
        let (ddos, _) = record_ddos(5);
        let (snapshot, bytes) = metered(&ddos);
        assert_eq!(snapshot.counter("codec.keyframes"), 5);
        assert_eq!(snapshot.counter("codec.delta_windows"), 0);
        assert_eq!(snapshot.counter("codec.bytes_saved"), 0);
        let reader = ZipReader::parse(&bytes).unwrap();
        for i in 0..5u64 {
            let entry = reader.read(&window_entry_name(i)).unwrap();
            assert_eq!(entry[4], FULL_WINDOW_VERSION, "entry {i}");
        }
    }

    #[test]
    fn error_displays_name_their_layer() {
        assert!(
            RecordError::from(ArchiveError::MissingEndOfCentralDirectory)
                .to_string()
                .contains("archive")
        );
        assert!(RecordError::from(CodecError::BadMagic)
            .to_string()
            .contains("window"));
        assert!(RecordError::Manifest("boom".to_string())
            .to_string()
            .contains("boom"));
    }
}
