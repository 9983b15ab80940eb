//! Property tests for the sharded accumulator's serial-equivalence guarantee:
//! for ANY event stream and ANY shard count, the sharded merge equals the
//! single-threaded `window_matrix` reference cell-for-cell.

use proptest::prelude::*;
use tw_ingest::shard::PAR_GRAIN;
use tw_ingest::{window_matrix, ShardedAccumulator};
use tw_matrix::ops::reduce_all;
use tw_matrix::stream::PacketEvent;
use tw_matrix::PlusTimes;

/// Arbitrary streams over a small address space (duplicates and hot cells are
/// likely, which is exactly what stresses coalescing across shards; packet
/// counts include zero, which both paths must drop identically).
fn arb_events(node_count: u32) -> impl Strategy<Value = Vec<PacketEvent>> {
    prop::collection::vec(
        (0..node_count, 0..node_count, 0u32..16, 0u64..1_000_000),
        0..400,
    )
    .prop_map(|tuples| {
        tuples
            .into_iter()
            .map(|(source, destination, packets, timestamp_us)| PacketEvent {
                source,
                destination,
                packets,
                timestamp_us,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sharded_merge_equals_serial_window_matrix(
        events in arb_events(48),
        shard_count in 1usize..=12,
    ) {
        let mut acc = ShardedAccumulator::new(48, shard_count);
        acc.ingest_batch(&events);
        let sharded = acc.merge();
        let serial = window_matrix(48, &events);
        // Structural equality covers row_ptr/col_idx/values — cell-for-cell.
        prop_assert_eq!(&sharded, &serial);
        // And the packet mass balances against the raw stream.
        let total: u64 = events.iter().map(|e| u64::from(e.packets)).sum();
        prop_assert_eq!(reduce_all(&PlusTimes, &sharded), total);
    }

    #[test]
    fn merge_is_stable_across_shard_counts(events in arb_events(32)) {
        let reference = window_matrix(32, &events);
        for shard_count in [1usize, 2, 5, 8] {
            let mut acc = ShardedAccumulator::new(32, shard_count);
            acc.ingest_batch(&events);
            prop_assert_eq!(acc.merge(), reference.clone());
        }
    }

    /// The parallel routing pass is a pure permutation of per-shard arrival
    /// order, so for ANY (events × shards × threads) geometry the window it
    /// produces equals the serial reference cell-for-cell. Streams are tiled
    /// to between `2 * PAR_GRAIN` events, the smallest batch that fans out,
    /// and `5 * PAR_GRAIN`, so routing runs up to four workers with uneven
    /// last chunks whenever `threads > 1`, and merges over two or more
    /// shards take their parallel branch on a host with two threads
    /// (smaller batches and merges run inline by design).
    #[test]
    fn parallel_route_batch_equals_serial_for_any_geometry(
        seed_events in arb_events(48),
        extra in 0usize..3 * PAR_GRAIN,
        shard_count in 1usize..=12,
        threads in 0usize..=9,
    ) {
        let events: Vec<PacketEvent> = seed_events
            .iter()
            .cycle()
            .take(if seed_events.is_empty() { 0 } else { 2 * PAR_GRAIN + extra })
            .copied()
            .collect();
        let mut acc = ShardedAccumulator::new(48, shard_count);
        acc.route_batch(&events, threads);
        let routed = acc.merge();
        let serial = window_matrix(48, &events);
        prop_assert_eq!(&routed, &serial);
        let total: u64 = events.iter().map(|e| u64::from(e.packets)).sum();
        prop_assert_eq!(reduce_all(&PlusTimes, &routed), total);
    }

    /// Recycled rotation scratch must never leak state between windows: a
    /// warm accumulator replaying the same stream window after window keeps
    /// producing the identical matrix a cold accumulator would.
    #[test]
    fn warm_scratch_windows_equal_cold_windows(
        events in arb_events(32),
        shard_count in 1usize..=8,
        windows in 2usize..=5,
    ) {
        let reference = window_matrix(32, &events);
        let mut warm = ShardedAccumulator::new(32, shard_count);
        for index in 0..windows {
            warm.route_batch(&events, 4);
            let matrix = warm.merge();
            prop_assert_eq!(&matrix, &reference);
            warm.recycle(matrix);
            prop_assert_eq!(warm.scratch_reuse_hits(), index as u64);
        }
    }

    #[test]
    fn split_ingest_equals_one_shot_ingest(
        events in arb_events(24),
        split in 0usize..400,
        shard_count in 1usize..=6,
    ) {
        let split = split.min(events.len());
        let mut one_shot = ShardedAccumulator::new(24, shard_count);
        one_shot.ingest_batch(&events);
        let mut split_acc = ShardedAccumulator::new(24, shard_count);
        split_acc.ingest_batch(&events[..split]);
        split_acc.ingest_batch(&events[split..]);
        prop_assert_eq!(one_shot.merge(), split_acc.merge());
    }
}
