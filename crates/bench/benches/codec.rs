//! E-S7 — the v3 delta window codec: archive size and decode cost.
//!
//! Two workloads probe the two sides of the delta trade. A synthetic
//! *steady* stream (a fixed hot-cell set with ~2% churn per window — the
//! shape of campus traffic between incidents) is where deltas pay: the
//! archive must shrink by at least 30% and decoding the delta chain
//! through a recycled [`DecodeScratch`] must beat full v2 decoding by at
//! least 1.3x — both asserted here, recorded in `BENCH_codec.json`. The
//! *bursty* `ddos` scenario is the counter-case: most cells churn every
//! window, so every delta is larger than its window in full and the cadence
//! encoder ships full windows instead — asserted as a cadence archive no
//! larger than the full one, apart from the manifest.
//!
//! The hot-cell count scales with `TW_CODEC_BENCH_EVENTS` (default 1e6,
//! CI's bench smoke step runs with 20000).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tw_bench::{banner, quick_criterion};
use tw_core::archive::ZipReader;
use tw_core::ingest::record::MANIFEST_ENTRY;
use tw_core::ingest::{
    decode_window, decode_window_into, encode_window, ArchiveRecorder, CadenceEncoder,
    DecodeScratch, Pipeline, PipelineConfig, RecordingMeta, Scenario, SteadyWindows, WindowReport,
};

const NODES: usize = 512;
const WINDOWS: usize = 16;
const KEYFRAME_EVERY: u64 = 8;
const SEED: u64 = 0x5eed_cafe;

fn event_budget() -> usize {
    std::env::var("TW_CODEC_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// Archive a window sequence at the given cadence; returns the ZIP size and
/// the size of its manifest entry.
fn archive_bytes(reports: &[WindowReport], scenario: &str, keyframe_every: u64) -> (usize, usize) {
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: scenario.to_string(),
        seed: SEED,
        node_count: NODES,
        window_us: 50_000,
        keyframe_every,
    });
    for report in reports {
        recorder.record(report).expect("recording in memory");
    }
    let zip = recorder.finish().expect("well under format limits");
    let manifest = ZipReader::parse(&zip)
        .and_then(|reader| reader.read(MANIFEST_ENTRY).map(|m| m.len()))
        .expect("the recorder writes a manifest");
    (zip.len(), manifest)
}

/// Every window encoded self-contained (the v2 wire/archive layout).
fn full_frames(reports: &[WindowReport]) -> Vec<Vec<u8>> {
    reports.iter().map(encode_window).collect()
}

/// The v3 chain: a key frame every [`KEYFRAME_EVERY`] windows, and in
/// between the smaller of the delta and the full window — what
/// `--keyframe-every` stores.
fn chain_frames(reports: &[WindowReport]) -> Vec<Vec<u8>> {
    let mut encoder = CadenceEncoder::new(KEYFRAME_EVERY);
    reports.iter().map(|r| encoder.encode(r).bytes).collect()
}

fn decode_full(frames: &[Vec<u8>]) -> u64 {
    let mut nnz = 0u64;
    for frame in frames {
        nnz += decode_window(frame).expect("encoded above").matrix.nnz() as u64;
    }
    nnz
}

fn decode_chain(frames: &[Vec<u8>]) -> u64 {
    let mut scratch = DecodeScratch::new();
    let mut nnz = 0u64;
    for frame in frames {
        let report = decode_window_into(frame, &mut scratch).expect("encoded above");
        nnz += report.matrix.nnz() as u64;
        scratch.recycle(report.matrix);
    }
    nnz
}

/// Best-of-N wall clock for a decode loop (min is the stable estimator on
/// a noisy runner; the criterion groups record the medians separately).
fn best_of<F: FnMut() -> u64>(mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..7 {
        let started = Instant::now();
        black_box(f());
        best = best.min(started.elapsed());
    }
    best
}

fn bench_codec(c: &mut Criterion) {
    banner("E-S7", "Delta window codec: archive size and decode cost");
    let hot = (event_budget() / WINDOWS).clamp(64, NODES * NODES / 2);
    let steady: Vec<WindowReport> = SteadyWindows::new(NODES, hot, WINDOWS, SEED).collect();

    // -- Archive size, steady: the delta cadence must cut >= 30%. --------
    let (steady_full, _) = archive_bytes(&steady, "steady", 0);
    let (steady_delta, _) = archive_bytes(&steady, "steady", KEYFRAME_EVERY);
    criterion::record_measurement("codec_steady/archive_bytes/full", steady_full as u128);
    criterion::record_measurement("codec_steady/archive_bytes/delta", steady_delta as u128);
    println!(
        "steady ({WINDOWS} windows, {hot} hot cells, ~2% churn): \
         full archive {steady_full} B, keyframe-every-{KEYFRAME_EVERY} {steady_delta} B \
         ({:.1}% of full)",
        steady_delta as f64 / steady_full as f64 * 100.0
    );
    assert!(
        steady_delta * 10 <= steady_full * 7,
        "delta archiving must cut a steady recording by >= 30% \
         (full {steady_full} B, delta {steady_delta} B)"
    );

    // -- Archive size, bursty: deltas lose, so the cadence ships full. ---
    let config = PipelineConfig {
        window_us: 50_000,
        batch_size: 8_192,
        shard_count: 4,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    let ddos = Pipeline::new(Scenario::Ddos.source(NODES as u32, SEED), config).run(8);
    let (ddos_full, ddos_full_manifest) = archive_bytes(&ddos, "ddos", 0);
    let (ddos_delta, ddos_delta_manifest) = archive_bytes(&ddos, "ddos", KEYFRAME_EVERY);
    criterion::record_measurement("codec_ddos/archive_bytes/full", ddos_full as u128);
    criterion::record_measurement("codec_ddos/archive_bytes/delta", ddos_delta as u128);
    println!(
        "bursty (ddos, 8 windows): full archive {ddos_full} B, \
         keyframe-every-{KEYFRAME_EVERY} {ddos_delta} B ({:.1}% of full) \
         — churn-heavy windows fall back to full encoding",
        ddos_delta as f64 / ddos_full as f64 * 100.0
    );
    assert!(
        ddos_delta - ddos_delta_manifest <= ddos_full - ddos_full_manifest,
        "a cadence archive of a bursty stream must be no larger than the full \
         one apart from the manifest (full {ddos_full} B with a \
         {ddos_full_manifest} B manifest, cadence {ddos_delta} B with a \
         {ddos_delta_manifest} B manifest)"
    );

    // -- Decode cost, steady: v2 full stream vs v3 chain into scratch. ---
    let full = full_frames(&steady);
    let chain = chain_frames(&steady);
    let expect = steady.iter().map(|r| r.matrix.nnz() as u64).sum::<u64>();
    assert_eq!(decode_full(&full), expect);
    assert_eq!(decode_chain(&chain), expect);

    let mut group = c.benchmark_group(format!("codec_{hot}_hot_cells"));
    group.bench_function("decode_full_v2", |b| {
        b.iter(|| black_box(decode_full(&full)))
    });
    group.bench_function("decode_delta_scratch", |b| {
        b.iter(|| black_box(decode_chain(&chain)))
    });
    group.bench_function("encode_full_v2", |b| {
        b.iter(|| black_box(full_frames(&steady).len()))
    });
    group.bench_function("encode_delta_chain", |b| {
        b.iter(|| black_box(chain_frames(&steady).len()))
    });
    group.finish();

    let full_time = best_of(|| decode_full(&full));
    let chain_time = best_of(|| decode_chain(&chain));
    let speedup = full_time.as_secs_f64() / chain_time.as_secs_f64().max(1e-9);
    println!(
        "steady decode: full v2 {:.2} ms vs delta-into-scratch {:.2} ms: {speedup:.1}x faster",
        full_time.as_secs_f64() * 1e3,
        chain_time.as_secs_f64() * 1e3,
    );
    assert!(
        speedup >= 1.3,
        "decoding the steady delta chain into a scratch must be >= 1.3x \
         faster than full v2 decoding (got {speedup:.2}x)"
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_codec
}
criterion_main!(benches);
