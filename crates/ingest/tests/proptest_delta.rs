//! Property tests for the v3 delta codec and cross-version decoding: a v2
//! archive reads bit-identically under the v3 reader, any delta chain is
//! cell-for-cell equal to the full stream it compresses (including seeks
//! landing mid-chain), the cadence encoder's sizing walk agrees with the
//! encoder and ships the smaller encoding, and no byte stream — full,
//! delta, mixed, or corrupt — panics the decoder.

use proptest::prelude::*;
use std::io::Cursor;
use std::time::Duration;
use tw_ingest::frame::{encode_delta_frame, encode_window_frame, read_raw_frame, FrameKind};
use tw_ingest::{
    decode_window, decode_window_into, delta_window_len, encode_window, encode_window_delta,
    ArchiveRecorder, CadenceEncoder, DecodeScratch, IngestStats, RecordingMeta, ReplaySource,
    SeekReplaySource, WindowReport, DELTA_WINDOW_VERSION, FULL_WINDOW_VERSION,
};
use tw_matrix::CsrMatrix;

/// An arbitrary window report over an `n`-address space (same coalescing as
/// the real COO path: sorted, deduplicated, no stored zeros).
fn arb_report(n: usize) -> impl Strategy<Value = WindowReport> {
    let entries = prop::collection::vec((0..n as u32, 0..n as u32, any::<u64>()), 0..80);
    (entries, any::<u64>(), any::<u64>()).prop_map(move |(entries, events, packets)| {
        let mut triples: Vec<(usize, usize, u64)> = entries
            .into_iter()
            .map(|(r, c, v)| (r as usize, c as usize, v))
            .collect();
        triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
        triples.dedup_by_key(|&mut (r, c, _)| (r, c));
        triples.retain(|&(_, _, v)| v != 0);
        let matrix = CsrMatrix::from_sorted_triples(n, n, &triples);
        let nnz = matrix.nnz();
        WindowReport {
            matrix,
            stats: IngestStats {
                window_index: 0,
                events,
                packets,
                nnz,
                dropped_late: 0,
                reordered: 1,
                elapsed: Duration::from_nanos(42),
            },
        }
    })
}

/// Cell edits `(row, col, value)`: value 0 deletes the cell, anything else
/// upserts it.
fn arb_edits(n: usize) -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0..n as u32, 0..n as u32, 0u64..4), 0..4)
}

/// `base` with `edits` applied: a low-churn successor window, on which a
/// delta is usually smaller than the full encoding.
fn drift(base: &WindowReport, edits: &[(u32, u32, u64)]) -> WindowReport {
    let mut cells: Vec<(usize, usize, u64)> = base.matrix.iter().collect();
    for &(r, c, v) in edits {
        let key = (r as usize, c as usize);
        match cells.binary_search_by_key(&key, |&(r, c, _)| (r, c)) {
            Ok(i) if v == 0 => drop(cells.remove(i)),
            Ok(i) => cells[i].2 = v,
            Err(i) if v != 0 => cells.insert(i, (key.0, key.1, v)),
            Err(_) => {}
        }
    }
    let (rows, cols) = base.matrix.shape();
    let matrix = CsrMatrix::from_sorted_triples(rows, cols, &cells);
    let mut stats = base.stats.clone();
    stats.nnz = matrix.nnz();
    WindowReport { matrix, stats }
}

/// A drifting window sequence over an `n`-address space: an arbitrary first
/// window, then mostly a [`drift`] of the window before (a delta usually
/// wins) and about one window in eight drawn afresh (the delta usually
/// loses, so the chain carries a full-window fallback).
fn arb_chain(n: usize) -> impl Strategy<Value = Vec<WindowReport>> {
    let step = (arb_edits(n), arb_report(n), 0u8..8);
    (arb_report(n), prop::collection::vec(step, 0..8)).prop_map(|(first, steps)| {
        let mut chain = vec![first];
        for (edits, fresh, pick) in steps {
            let next = if pick == 0 {
                fresh
            } else {
                drift(chain.last().expect("starts non-empty"), &edits)
            };
            chain.push(next);
        }
        reindex(chain)
    })
}

/// Re-index a generated window sequence like a pipeline would.
fn reindex(mut reports: Vec<WindowReport>) -> Vec<WindowReport> {
    for (i, report) in reports.iter_mut().enumerate() {
        report.stats.window_index = i as u64;
    }
    reports
}

/// Record a window sequence at the given key-frame cadence.
fn record(reports: &[WindowReport], keyframe_every: u64) -> Vec<u8> {
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: "proptest".to_string(),
        seed: 42,
        node_count: reports
            .iter()
            .map(|r| r.matrix.rows())
            .max()
            .unwrap_or(1)
            .max(1),
        window_us: 1_000,
        keyframe_every,
    });
    for report in reports {
        recorder.record(report).unwrap();
    }
    recorder.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_round_trips_any_window_pair(
        prev in arb_report(48),
        cur in arb_report(48),
    ) {
        let reports = reindex(vec![prev, cur]);
        let delta = encode_window_delta(&reports[0], &reports[1]);
        let mut scratch = DecodeScratch::new();
        // Arm the scratch with the base, exactly as a reader would.
        let base = decode_window_into(&encode_window(&reports[0]), &mut scratch).unwrap();
        prop_assert_eq!(&base, &reports[0]);
        let decoded = decode_window_into(&delta, &mut scratch).unwrap();
        prop_assert_eq!(&decoded.matrix, &reports[1].matrix);
        prop_assert_eq!(&decoded.stats, &reports[1].stats);
    }

    #[test]
    fn cadence_encoder_ships_the_smaller_encoding(
        prev in arb_report(48),
        cur in arb_report(48),
        limit in 0usize..2048,
        edits in arb_edits(48),
        drifted in any::<bool>(),
    ) {
        // Half the cases patch `prev` lightly instead of drawing an
        // unrelated window, so the delta-wins branch is exercised as often
        // as the fallback.
        let cur = if drifted { drift(&prev, &edits) } else { cur };
        let reports = reindex(vec![prev, cur]);
        let delta = encode_window_delta(&reports[0], &reports[1]);
        let full = encode_window(&reports[1]);

        // The sizing walk is exact, and budgeted: it answers only below
        // its limit.
        prop_assert_eq!(delta_window_len(&reports[0], &reports[1], usize::MAX), Some(delta.len()));
        prop_assert_eq!(
            delta_window_len(&reports[0], &reports[1], limit),
            (delta.len() < limit).then_some(delta.len())
        );

        // The encoder ships the strictly smaller encoding; ties go full.
        let mut encoder = CadenceEncoder::new(2);
        let key = encoder.encode(&reports[0]);
        prop_assert!(!key.delta);
        let shipped = encoder.encode(&reports[1]);
        let want = if delta.len() < full.len() { &delta } else { &full };
        prop_assert_eq!(&shipped.bytes, want);
        prop_assert_eq!(shipped.delta, shipped.bytes[4] == DELTA_WINDOW_VERSION);

        // Whatever shipped decodes to the current window through a scratch.
        let mut scratch = DecodeScratch::new();
        decode_window_into(&key.bytes, &mut scratch).unwrap();
        let decoded = decode_window_into(&shipped.bytes, &mut scratch).unwrap();
        prop_assert_eq!(&decoded.matrix, &reports[1].matrix);
        prop_assert_eq!(&decoded.stats, &reports[1].stats);
    }

    #[test]
    fn v2_windows_decode_bit_identically_under_the_v3_reader(report in arb_report(64)) {
        // The full encoding still writes version 2 bytes; both the plain
        // decoder and the scratch path read them to the same report.
        let bytes = encode_window(&report);
        prop_assert_eq!(bytes[4], FULL_WINDOW_VERSION);
        let plain = decode_window(&bytes).unwrap();
        let mut scratch = DecodeScratch::new();
        let scratched = decode_window_into(&bytes, &mut scratch).unwrap();
        prop_assert_eq!(&plain, &report);
        prop_assert_eq!(&scratched, &report);
    }

    #[test]
    fn delta_chains_replay_and_seek_cell_for_cell(
        reports in arb_chain(32),
        keyframe_every in 0u64..=5,
        target in 0usize..9,
    ) {
        let bytes = record(&reports, keyframe_every);

        // Straight replay: every window equals the recorded one.
        let mut replay = ReplaySource::parse(&bytes).unwrap();
        let replayed = replay.collect_windows().unwrap();
        prop_assert_eq!(replayed.len(), reports.len());
        for (replayed, recorded) in replayed.iter().zip(&reports) {
            prop_assert_eq!(&replayed.matrix, &recorded.matrix);
            prop_assert_eq!(&replayed.stats, &recorded.stats);
        }

        // Seeking lands on a covering key frame and rolls forward, so the
        // window pulled after any in-range seek is exactly the target.
        let target = target.min(reports.len() - 1);
        let mut seeker = SeekReplaySource::new(Cursor::new(bytes)).unwrap();
        let key = seeker.seek(target).unwrap();
        prop_assert!(key <= target);
        if keyframe_every > 0 {
            prop_assert_eq!(key, target - target % keyframe_every as usize);
        } else {
            prop_assert_eq!(key, target);
        }
        let got = seeker.next_window().unwrap().expect("target in range");
        prop_assert_eq!(&got.matrix, &reports[target].matrix);
        prop_assert_eq!(&got.stats, &reports[target].stats);
    }

    #[test]
    fn mixed_frame_streams_never_panic(
        reports in prop::collection::vec(arb_report(24), 2..8),
        as_delta in prop::collection::vec(any::<bool>(), 2..8),
        skip_first in any::<bool>(),
    ) {
        // Interleave v2 full frames and v3 delta frames in an arbitrary
        // pattern — including chains whose base a reader joining late (or a
        // mis-ordered writer) never saw. Decoding may error (base
        // mismatch), but must never panic, and every full frame must reset
        // the chain so later windows decode again.
        let reports = reindex(reports);
        let mut wire = Vec::new();
        for (i, report) in reports.iter().enumerate() {
            let delta = i > 0 && as_delta.get(i).copied().unwrap_or(false);
            if delta {
                wire.extend_from_slice(&encode_delta_frame(&encode_window_delta(
                    &reports[i - 1],
                    report,
                )));
            } else {
                wire.extend_from_slice(&encode_window_frame(&encode_window(report)));
            }
        }
        let mut cursor = Cursor::new(&wire);
        let mut scratch = DecodeScratch::new();
        if skip_first {
            // Drop the head frame: a mid-stream joiner's view.
            let _ = read_raw_frame(&mut cursor);
        }
        let mut decoded_any = false;
        while let Ok((kind, payload)) = read_raw_frame(&mut cursor) {
            prop_assert!(matches!(kind, FrameKind::Window | FrameKind::DeltaWindow));
            if decode_window_into(&payload, &mut scratch).is_ok() {
                decoded_any = true;
            }
        }
        if !skip_first {
            // The stream opens with a self-contained full frame, so a
            // from-the-start reader always decodes at least that one.
            prop_assert!(decoded_any);
        }
    }

    #[test]
    fn delta_decoder_never_panics_on_corrupted_payloads(
        prev in arb_report(24),
        cur in arb_report(24),
        flips in prop::collection::vec((0usize..4096, 1u8..=255), 1..6),
        armed in any::<bool>(),
    ) {
        let reports = reindex(vec![prev, cur]);
        let mut bytes = encode_window_delta(&reports[0], &reports[1]);
        for (pos, xor) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= xor;
        }
        let mut scratch = DecodeScratch::new();
        if armed {
            decode_window_into(&encode_window(&reports[0]), &mut scratch).unwrap();
        }
        // Either decodes (harmless flip) or errors; never panics.
        let _ = decode_window_into(&bytes, &mut scratch);
    }

    #[test]
    fn delta_decoder_never_panics_on_arbitrary_bytes(
        tail in prop::collection::vec(any::<u8>(), 0..256),
        armed in any::<bool>(),
    ) {
        // Random bytes behind a valid delta header probe the delta parser
        // itself (a random prefix would usually fail at the magic check).
        let mut bytes = vec![b'T', b'W', b'W', b'R', 3];
        bytes.extend_from_slice(&tail);
        let mut scratch = DecodeScratch::new();
        if armed {
            let base = WindowReport {
                matrix: CsrMatrix::from_sorted_triples(8, 8, &[(1, 2, 3)]),
                stats: IngestStats {
                    window_index: 0,
                    events: 1,
                    packets: 3,
                    nnz: 1,
                    dropped_late: 0,
                    reordered: 0,
                    elapsed: Duration::from_nanos(1),
                },
            };
            decode_window_into(&encode_window(&base), &mut scratch).unwrap();
        }
        let _ = decode_window_into(&bytes, &mut scratch);
    }
}
