//! Self-tests of the benchmark harness: its correctness gate must catch a
//! lagging student, a wrong digest and an overloaded schedule, and the
//! pre-generated event replay must reproduce the live generator.

use std::time::Duration;
use tw_e2ebench::digest::window_digest;
use tw_e2ebench::session::{run_session, SessionOptions};
use tw_e2ebench::workload::{Feed, PregenSource, Prepared, Shape};
use tw_ingest::{Limit, Pipeline, Scenario};

/// Pre-generated `ddos` events without skew: strict-mode windows.
fn pregen_ddos(nodes: u32, events: usize) -> Shape {
    Shape {
        feed: Feed::Pregen {
            scenario: Scenario::Ddos,
            events,
            skew_us: 0,
        },
        nodes,
        window_us: 50_000,
        students: 2,
        keyframe_every: 0,
        channel_capacity: 1024,
        threads: 2,
    }
}

#[test]
fn a_clean_session_passes_the_gate() {
    let result = run_session(&pregen_ddos(256, 60_000), 7, &SessionOptions::default()).unwrap();
    assert!(result.windows > 5, "{} windows", result.windows);
    assert_eq!(result.failures, Vec::<String>::new());
    assert_eq!(result.failed, 0);
    assert_eq!(result.attempted, result.windows * 2);
    assert_eq!(result.lags_ms.len() as u64, result.attempted);
    assert!(result.events_per_s() > 0.0);
}

#[test]
fn a_perturbed_digest_fails_the_run() {
    let options = SessionOptions {
        perturb_digest: Some(2),
        ..SessionOptions::default()
    };
    let result = run_session(&pregen_ddos(256, 60_000), 7, &options).unwrap();
    assert!(result.failed >= 2, "both students mismatch window 2");
    assert!(result.failed_frac() > 0.0);
    assert!(
        result.failures.iter().any(|f| f.contains("wrong digest")),
        "{:?}",
        result.failures
    );
}

#[test]
fn a_student_that_stops_reading_behind_a_tiny_channel_fails_the_run() {
    // Full 4096-node windows (~55 KB each at 250 ms) outgrow the loopback
    // socket buffers while the stalled student sleeps, so the writer blocks
    // and the one-slot hub channel drops frames for that student.
    let mut shape = pregen_ddos(4096, 6_000_000);
    shape.window_us = 250_000;
    shape.students = 1;
    shape.channel_capacity = 1;
    let options = SessionOptions {
        stall: Some((0, Duration::from_millis(1500))),
        ..SessionOptions::default()
    };
    let result = run_session(&shape, 3, &options).unwrap();
    assert!(result.failed > 0, "{:?}", result.failures);
    assert!(result.failed_frac() > 0.0);
    assert!(
        result.failures.iter().any(|f| f.contains("not verified")),
        "the stalled student lost windows to the full channel: {:?}",
        result.failures
    );
}

#[test]
fn an_offered_rate_above_capacity_is_flagged_as_backlog() {
    let shape = Shape {
        feed: Feed::Replay {
            scenario: Scenario::Ddos,
            windows: 600,
            // Far faster than serve can go: every window is already late.
            interval: Duration::from_nanos(1),
        },
        nodes: 1024,
        window_us: 20_000,
        students: 1,
        keyframe_every: 0,
        channel_capacity: 1024,
        threads: 2,
    };
    let result = run_session(&shape, 5, &SessionOptions::default()).unwrap();
    assert!(
        result.failures.iter().any(|f| f.starts_with("backlog")),
        "{:?}",
        result.failures
    );
    assert!(result.failed > 0);
}

#[test]
fn pregenerated_replay_matches_the_live_generator() {
    let (nodes, seed, skew_us, events) = (512, 11, 50_000, 400_000);
    let shape = Shape {
        feed: Feed::Pregen {
            scenario: Scenario::Mixed,
            events,
            skew_us,
        },
        nodes,
        window_us: 100_000,
        students: 1,
        keyframe_every: 8,
        channel_capacity: 1024,
        threads: 2,
    };
    let Prepared::Pregen {
        events: buffer,
        horizon_us,
    } = shape.prepare(seed).unwrap()
    else {
        panic!("a pregen feed prepares an event buffer");
    };
    assert_eq!(buffer.len(), events);
    let (live_source, live_horizon) = Scenario::Mixed.skewed_source(nodes, seed, skew_us);
    assert_eq!(horizon_us, live_horizon);
    let digests = |mut pipeline: Pipeline| -> Vec<(u64, u64)> {
        pipeline
            .run(usize::MAX)
            .iter()
            .map(|w| (w.stats.window_index, window_digest(&w.matrix)))
            .collect()
    };
    let live = digests(Pipeline::new(
        Box::new(Limit::new(live_source, events)),
        shape.pipeline_config(live_horizon),
    ));
    let replayed = digests(Pipeline::new(
        Box::new(PregenSource::new(buffer, nodes)),
        shape.pipeline_config(horizon_us),
    ));
    assert!(live.len() > 10, "{} windows", live.len());
    assert_eq!(live, replayed);
}
