//! E-S3 — sharded streaming-ingest throughput.
//!
//! Two claims, both asserted inside the bench body:
//!
//! 1. The original scaling claim: turning a million-event scenario stream
//!    into windowed hypersparse matrices is faster through the sharded
//!    accumulator (hash-partition by source row, per-shard coalesce, blocked
//!    row-disjoint merge) than through the serial single-COO path.
//! 2. The hot-path claim behind the parallel routing + scratch-recycling
//!    rework: the current pipeline (batched window scan, whole-batch
//!    `route_batch`, warm rotation scratch, recycled CSR storage) beats a
//!    faithful replica of the pre-rework per-event loop (VecDeque pop +
//!    per-event window division + one-event routing + cold fresh-allocation
//!    merges) by at least 1.25x on the same ten-window workload.
//!
//! Event count defaults to 1e6; set `TW_INGEST_BENCH_EVENTS` to shrink it
//! (CI's bench smoke step runs with a tiny count, where the speedup
//! assertion is skipped because sub-millisecond rounds are all noise).
//! Medians land in `BENCH_ingest.json` via the criterion shim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use tw_bench::{banner, quick_criterion};
use tw_core::ingest::{
    collect_events, window_matrix, Pipeline, PipelineConfig, Scenario, ShardedAccumulator,
};
use tw_core::matrix::stream::PacketEvent;
use tw_core::matrix::CsrMatrix;

fn event_count() -> usize {
    std::env::var("TW_INGEST_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// The pre-rework sharded accumulator, replicated verbatim from the
/// committed code this rework replaced and FROZEN here: Fibonacci-hash
/// routing one event at a time, and a rotation that swaps in fresh shard
/// vectors, sorts every shard unconditionally, unpacks into 24-byte COO
/// triples and builds the CSR matrix from fresh allocations. Keeping the
/// replica self-contained (instead of driving the live accumulator in a
/// compatibility mode) pins the baseline: later improvements to the live
/// merge path cannot retroactively speed the baseline up and understate the
/// rework's win.
struct LegacyAccumulator {
    node_count: usize,
    shards: Vec<Vec<(u64, u64)>>,
    events: u64,
    packets: u64,
}

impl LegacyAccumulator {
    fn new(node_count: usize, shard_count: usize) -> Self {
        LegacyAccumulator {
            node_count,
            shards: vec![Vec::new(); shard_count],
            events: 0,
            packets: 0,
        }
    }

    #[inline]
    fn shard_of(&self, row: usize) -> usize {
        let hashed = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((hashed >> 32) as usize) % self.shards.len()
    }

    #[inline]
    fn ingest(&mut self, event: &PacketEvent) {
        let row = event.source as usize;
        let shard = self.shard_of(row);
        let key = (u64::from(event.source) << 32) | u64::from(event.destination);
        self.shards[shard].push((key, u64::from(event.packets)));
        self.events += 1;
        self.packets += u64::from(event.packets);
    }

    fn merge(&mut self) -> CsrMatrix<u64> {
        let fresh = vec![Vec::new(); self.shards.len()];
        let shards = std::mem::replace(&mut self.shards, fresh);
        self.events = 0;
        self.packets = 0;
        let blocks: Vec<Vec<(usize, usize, u64)>> =
            shards.into_par_iter().map(legacy_coalesce_packed).collect();
        CsrMatrix::from_row_disjoint_blocks(self.node_count, self.node_count, blocks)
    }
}

/// The pre-rework per-shard coalesce: sort the packed entries, sum duplicate
/// coordinates, unpack into freshly allocated sorted COO triples.
fn legacy_coalesce_packed(mut entries: Vec<(u64, u64)>) -> Vec<(usize, usize, u64)> {
    entries.sort_unstable_by_key(|&(key, _)| key);
    let mut out: Vec<(usize, usize, u64)> = Vec::with_capacity(entries.len());
    let mut push = |key: u64, packets: u64| {
        if packets != 0 {
            out.push(((key >> 32) as usize, (key & 0xFFFF_FFFF) as usize, packets));
        }
    };
    let mut iter = entries.into_iter();
    let Some((mut run_key, mut run_packets)) = iter.next() else {
        return out;
    };
    for (key, packets) in iter {
        if key == run_key {
            run_packets += packets;
        } else {
            push(run_key, run_packets);
            run_key = key;
            run_packets = packets;
        }
    }
    push(run_key, run_packets);
    out
}

/// The pre-rework ingest hot loop around [`LegacyAccumulator`], replicated
/// faithfully from the committed pipeline this rework replaced: one VecDeque
/// pop per event, one `timestamp / window_us` division per event,
/// one-event-at-a-time routing, and the cold fresh-allocation rotation
/// above. Report assembly and stats bookkeeping are omitted, which only
/// makes the replica FASTER than the real predecessor — the speedup
/// assertion is conservative.
fn legacy_ten_windows(scenario: Scenario, nodes: u32, window_us: u64) -> u64 {
    let mut source = scenario.source(nodes, 3);
    let mut pending: VecDeque<PacketEvent> = VecDeque::new();
    let mut batch: Vec<PacketEvent> = Vec::new();
    let mut acc = LegacyAccumulator::new(nodes as usize, 8);
    let mut current = 0u64;
    let mut emitted = 0usize;
    let mut total_events = 0u64;
    'outer: while emitted < 10 {
        while let Some(event) = pending.front() {
            let window = event.timestamp_us / window_us;
            if window == current {
                let event = pending.pop_front().expect("front just observed");
                acc.ingest(&event);
                total_events += 1;
            } else {
                black_box(acc.merge().nnz());
                current += 1;
                emitted += 1;
                if emitted >= 10 {
                    break 'outer;
                }
            }
        }
        batch.clear();
        if source.pull(8_192, &mut batch) == 0 {
            break;
        }
        pending.extend(batch.iter().copied());
    }
    total_events
}

/// The current hot path as a consumer actually drives it: batched scan +
/// batch routing inside the pipeline (inline: an 8,192-event batch is under
/// the fan-out grain), and every emitted matrix handed back through
/// `recycle_window` so rotation storage cycles instead of being reallocated.
fn routed_ten_windows(scenario: Scenario, nodes: u32, window_us: u64) -> u64 {
    let config = PipelineConfig {
        window_us,
        batch_size: 8_192,
        shard_count: 8,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    let mut pipeline = Pipeline::new(scenario.source(nodes, 3), config);
    let mut total_events = 0u64;
    let mut emitted = 0usize;
    while emitted < 10 {
        let Some(report) = pipeline.next_window() else {
            break;
        };
        total_events += report.stats.events;
        pipeline.recycle_window(report.matrix);
        emitted += 1;
    }
    total_events
}

/// The minimum over rounds: scheduler and cache noise only ever ADD time, so
/// the fastest observed round is the least-contaminated estimate of the true
/// cost — the estimator of choice for an A/B ratio on a shared machine.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn bench_ingest(c: &mut Criterion) {
    let nodes = 1024u32;
    let events = {
        let mut source = Scenario::Mixed.source(nodes, 11);
        collect_events(source.as_mut(), event_count())
    };
    banner(
        "E-S3",
        "Sharded ingest throughput (serial COO vs sharded accumulator, full pipeline)",
    );
    println!(
        "{} events over {nodes} nodes; serial reference nnz {}",
        events.len(),
        window_matrix(nodes as usize, &events).nnz()
    );

    // One-shot accumulation: the whole stream as a single window.
    let mut group = c.benchmark_group(format!("ingest_{}_events", events.len()));
    group.bench_function("serial_window_matrix", |b| {
        b.iter(|| black_box(window_matrix(nodes as usize, &events).nnz()))
    });
    for &shards in &[2usize, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new("sharded_merge", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut acc = ShardedAccumulator::new(nodes as usize, shards);
                    acc.ingest_batch(&events);
                    black_box(acc.merge().nnz())
                })
            },
        );
    }
    group.finish();

    // Full pipeline: pull → route → window rotation, 10 simulated windows.
    // The catalog runs at ~100k events per simulated second, i.e. one event
    // every ~10 µs: size the window so each holds ~window_events events.
    let window_events = (event_count() / 10).max(1_000);
    let window_us = (window_events as u64) * 10;
    let mut group = c.benchmark_group("ingest_pipeline");
    for scenario in [Scenario::Background, Scenario::Ddos] {
        group.bench_with_input(
            BenchmarkId::new("ten_windows", scenario),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    let config = PipelineConfig {
                        window_us,
                        batch_size: 8_192,
                        shard_count: 8,
                        reorder_horizon_us: 0,
                        ..Default::default()
                    };
                    let mut pipeline = Pipeline::new(scenario.source(nodes, 3), config);
                    let reports = pipeline.run(10);
                    black_box(reports.iter().map(|r| r.stats.events).sum::<u64>())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ten_windows_recycled", scenario),
            &scenario,
            |b, scenario| b.iter(|| black_box(routed_ten_windows(*scenario, nodes, window_us))),
        );
        group.bench_with_input(
            BenchmarkId::new("ten_windows_legacy", scenario),
            &scenario,
            |b, scenario| b.iter(|| black_box(legacy_ten_windows(*scenario, nodes, window_us))),
        );
    }
    group.finish();

    // --- The hot-path speedup bound, measured by hand with interleaved
    // rounds so slow drift (thermal, scheduler) hits both sides equally.
    const ROUNDS: usize = 9;
    const REQUIRED_SPEEDUP: f64 = 1.25;
    for scenario in [Scenario::Background, Scenario::Ddos] {
        let mut legacy_s = Vec::with_capacity(ROUNDS);
        let mut routed_s = Vec::with_capacity(ROUNDS);
        // One untimed warm-up pair: first touch of the scenario tables and
        // the allocator is not what we are bounding.
        black_box(legacy_ten_windows(scenario, nodes, window_us));
        black_box(routed_ten_windows(scenario, nodes, window_us));
        let mut legacy_events = 0u64;
        let mut routed_events = 0u64;
        for _ in 0..ROUNDS {
            let started = Instant::now();
            legacy_events = black_box(legacy_ten_windows(scenario, nodes, window_us));
            legacy_s.push(started.elapsed().as_secs_f64());

            let started = Instant::now();
            routed_events = black_box(routed_ten_windows(scenario, nodes, window_us));
            routed_s.push(started.elapsed().as_secs_f64());
        }
        assert_eq!(
            legacy_events, routed_events,
            "the replica and the pipeline must ingest the same stream"
        );
        let legacy = fastest(&legacy_s);
        let routed = fastest(&routed_s);
        let speedup = legacy / routed;
        println!(
            "{scenario:?}: {legacy_events} events x {ROUNDS} interleaved rounds: \
             fastest legacy {:.1} ms, fastest routed+recycled {:.1} ms, speedup {speedup:.2}x",
            legacy * 1e3,
            routed * 1e3
        );
        criterion::record_measurement(
            &format!("ingest_speedup/{scenario:?}/speedup_permille"),
            (speedup * 1000.0).round() as u128,
        );
        if event_count() >= 100_000 {
            assert!(
                speedup >= REQUIRED_SPEEDUP,
                "routed+recycled pipeline is only {speedup:.2}x the pre-rework loop on \
                 {scenario:?}; the ingest rework promises >= {REQUIRED_SPEEDUP}x"
            );
            println!("hot-path bound holds: {speedup:.2}x >= {REQUIRED_SPEEDUP}x");
        } else {
            println!("event count below 100k: speedup assertion skipped (noise-dominated)");
        }
    }

    // Events/sec summary for the experiment record.
    let mut acc = ShardedAccumulator::new(nodes as usize, 8);
    let started = std::time::Instant::now();
    acc.ingest_batch(&events);
    let matrix = acc.merge();
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "sharded(8): {} events -> nnz {} in {:.1} ms = {:.2} M events/s",
        events.len(),
        matrix.nnz(),
        elapsed * 1e3,
        events.len() as f64 / elapsed / 1e6
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_ingest
}
criterion_main!(benches);
