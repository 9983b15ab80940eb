//! The serving side: one window stream, many TCP connections.
//!
//! [`serve`] drives any [`WindowStream`] exactly once on the calling thread
//! and fans each window out to every connected peer:
//!
//! ```text
//!            main thread                 acceptor thread
//!  ┌───────────────────────────┐   ┌──────────────────────────┐
//!  │ next_window()             │   │ listener.accept() loop   │
//!  │   → encode_window (once)  │   │   → subscribe(Origin)    │
//!  │   → frame → Arc<[u8]>     │   │   → spawn writer thread  │
//!  │   → hub.publish_window()  │   └──────────┬───────────────┘
//!  └───────────┬───────────────┘              │ per connection
//!              ▼                              ▼
//!   BroadcastHub<Arc<[u8]>>  ──bounded──►  writer: manifest frame,
//!   (ring catch-up, lag-drop              recv() → write_all(frame),
//!    accounting from tw-game)             close frame with accounting
//! ```
//!
//! Each window is encoded **once**; every connection shares the same frame
//! bytes behind an `Arc`. With [`ServeConfig::keyframe_every`] set, the
//! windows between key frames go out as v3 delta frames wherever a delta is
//! smaller than the full frame, and a late joiner is caught up from the
//! newest key frame covering its join point (the hub's [`CatchupRewrite`](tw_game::broadcast::CatchupRewrite) hook). A slow connection fills its bounded channel and
//! starts dropping frames — counted per subscriber, surfaced on telemetry,
//! and echoed to the peer in its close frame — but it never stalls the
//! class. A dead connection fails its next write, the writer thread exits,
//! and the hub retires the slot on the next delivery.
//!
//! All threads live inside one [`std::thread::scope`]: when [`serve`]
//! returns, the acceptor and every writer have been joined — no leaks, no
//! orphan sockets.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tw_game::broadcast::{
    BroadcastConfig, BroadcastHub, BroadcastSummary, HubHandle, HubSubscription, StartOffset,
};
use tw_game::telemetry::{TelemetryEvent, TelemetryHub};
use tw_ingest::frame::{
    encode_close_frame, encode_delta_frame, encode_manifest_frame, encode_stats_frame,
    encode_window_frame, split_frame, write_frame, CloseSummary, FrameError, FrameKind,
    StreamManifest,
};
use tw_ingest::{
    decode_window_into, encode_window, CadenceEncoder, CodecError, DecodeScratch, StreamError,
    WindowReport, WindowStream, MAX_DIMENSION,
};
use tw_metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot, StageTimer};

/// Pre-resolved handles for the serving tier's own metrics (`serve.*`).
#[derive(Clone, Debug)]
struct ServeMetrics {
    /// `serve.encode_ns`: window codec + framing time, once per window.
    encode_ns: Histogram,
    /// `serve.windows_encoded`: windows encoded and published.
    windows_encoded: Counter,
    /// `serve.encoded_bytes`: codec payload bytes, full or delta
    /// (pre-framing).
    encoded_bytes: Counter,
    /// `serve.accept_ns`: how long after serve start each peer connected.
    accept_ns: Histogram,
    /// `serve.connections`: peers accepted.
    connections: Counter,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            encode_ns: registry.histogram("serve.encode_ns"),
            windows_encoded: registry.counter("serve.windows_encoded"),
            encoded_bytes: registry.counter("serve.encoded_bytes"),
            accept_ns: registry.histogram("serve.accept_ns"),
            connections: registry.counter("serve.connections"),
        }
    }
}

/// Everything one writer thread needs to meter its socket and emit wire
/// stats frames. `serve.frame_write_ns` and `serve.wire_bytes` are shared
/// across all writers: one sample per socket write, whoever wrote it.
#[derive(Clone, Debug)]
struct ConnMetrics {
    registry: MetricsRegistry,
    /// Emit a [`Frame::Stats`](tw_ingest::frame::Frame) after every N window
    /// frames, plus one final snapshot before the close frame; 0 sends none.
    stats_every: u64,
    frame_write_ns: Histogram,
    wire_bytes: Counter,
}

/// Write one frame with optional timing and byte accounting.
fn write_frame_metered(
    socket: &mut TcpStream,
    bytes: &[u8],
    metrics: Option<&ConnMetrics>,
) -> Result<(), FrameError> {
    let timer = StageTimer::start(metrics.map(|m| &m.frame_write_ns));
    let result = write_frame(socket, bytes);
    timer.finish();
    if result.is_ok() {
        if let Some(m) = metrics {
            m.wire_bytes.add(bytes.len() as u64);
        }
    }
    result
}

/// Tuning knobs for one [`serve`] session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scenario name announced in the manifest frame.
    pub scenario: String,
    /// Seed announced in the manifest frame.
    pub seed: u64,
    /// Bounded per-connection frame channel depth (lag-drop threshold).
    pub channel_capacity: usize,
    /// Recent frames retained for late-joiner catch-up.
    pub ring_capacity: usize,
    /// Connections to wait for before the first window is served (0 starts
    /// immediately); bounded by `roster_timeout`.
    pub wait_for: usize,
    /// Stop after this many windows even if the stream has more.
    pub max_windows: usize,
    /// Stop once at least one peer has joined and all of them have left.
    /// Combine with `wait_for` so an infinite live stream has a roster to
    /// watch; with no peer ever joining the stream runs to exhaustion.
    pub stop_when_empty: bool,
    /// Per-write timeout on each connection: a peer that stops reading for
    /// this long (with full socket buffers) is disconnected, not waited on.
    pub write_timeout: Duration,
    /// Upper bound on the `wait_for` roster wait; serving starts with
    /// whoever has joined when it expires.
    pub roster_timeout: Duration,
    /// Metrics registry for the whole serving stack. When set, the pipeline
    /// hub and server record into it, the final snapshot lands in
    /// [`ServeSummary::snapshot`] (with per-peer `serve.peer.<id>.*`
    /// counters), and `stats_every` can put it on the wire.
    pub metrics: Option<MetricsRegistry>,
    /// With metrics enabled: send a `Stats` frame to every peer after each
    /// N window frames, plus a final snapshot before the close frame.
    /// 0 (the default) keeps the wire free of stats frames.
    pub stats_every: u64,
    /// Key-frame cadence for v3 delta serving: every K-th window goes out
    /// as a self-contained full frame; each window between goes out as a
    /// sparse delta against the previous window where that is smaller than
    /// the full frame, and in full otherwise (see [`CadenceEncoder`]).
    /// 0 (the default) serves every window as a full v2 frame. Clamped to
    /// `ring_capacity` so the catch-up ring always holds a key frame for
    /// late joiners to anchor on.
    pub keyframe_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            scenario: "live".to_string(),
            seed: 0,
            channel_capacity: 64,
            ring_capacity: 32,
            wait_for: 0,
            max_windows: usize::MAX,
            stop_when_empty: false,
            write_timeout: Duration::from_secs(5),
            roster_timeout: Duration::from_secs(30),
            metrics: None,
            stats_every: 0,
            keyframe_every: 0,
        }
    }
}

/// Everything that can end a [`serve`] session abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The window stream failed mid-serve (connected peers still received
    /// a clean close frame).
    Stream(StreamError),
    /// The listener could not be configured or polled.
    Io(String),
    /// The stream's windows are too large for the window codec; refused
    /// before any thread starts or any peer connects.
    Codec(CodecError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Stream(e) => write!(f, "serve: {e}"),
            ServeError::Io(msg) => write!(f, "serve: {msg}"),
            ServeError::Codec(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        ServeError::Stream(e)
    }
}

/// The outcome of a finished [`serve`] session.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Total codec payload bytes encoded (full or delta, once per window,
    /// regardless of connection count).
    pub encoded_bytes: u64,
    /// The hub's roster accounting — the same [`BroadcastSummary`] the
    /// in-process classroom reports, one entry per connection.
    pub broadcast: BroadcastSummary,
    /// The final metrics snapshot, when [`ServeConfig::metrics`] was set.
    /// Taken after the hub closed, so every counter is final and the books
    /// balance: `serve.windows_encoded == serve.peer.<id>.delivered +
    /// .dropped + .missed` for every peer that stayed to the end.
    pub snapshot: Option<MetricsSnapshot>,
}

impl ServeSummary {
    /// Windows served.
    pub fn windows(&self) -> u64 {
        self.broadcast.windows
    }

    /// Connections that ever joined.
    pub fn connections(&self) -> usize {
        self.broadcast.subscribers
    }
}

/// Serve `stream` to every connection the listener accepts until the stream
/// ends, `config.max_windows` is reached, or (with `stop_when_empty`) the
/// roster empties. Returns once every connection thread has been joined.
///
/// The listener is switched to non-blocking mode and polled, so shutdown
/// needs no self-connect trick. Callers wanting an ephemeral port bind
/// `127.0.0.1:0` themselves and read `listener.local_addr()` first.
pub fn serve(
    listener: TcpListener,
    stream: &mut dyn WindowStream,
    config: &ServeConfig,
    telemetry: Option<TelemetryHub>,
) -> Result<ServeSummary, ServeError> {
    if stream.node_count() > MAX_DIMENSION {
        return Err(ServeError::Codec(CodecError::DimensionTooLarge {
            dimension: stream.node_count(),
            limit: MAX_DIMENSION,
        }));
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Io(format!("listener nonblocking: {e}")))?;
    let windows_hint = {
        let remaining = stream.remaining_windows().map(|w| w as u64);
        let cap = (config.max_windows != usize::MAX).then_some(config.max_windows as u64);
        match (remaining, cap) {
            (Some(r), Some(c)) => Some(r.min(c)),
            (one, other) => one.or(other),
        }
    };
    let manifest = StreamManifest {
        scenario: config.scenario.clone(),
        seed: config.seed,
        node_count: stream.node_count(),
        window_us: stream.window_us(),
        windows: windows_hint,
    };
    let manifest_frame: Arc<[u8]> = encode_manifest_frame(&manifest).into();
    let hub_config = BroadcastConfig {
        channel_capacity: config.channel_capacity,
        ring_capacity: config.ring_capacity,
    };
    let mut hub: BroadcastHub<Arc<[u8]>> =
        BroadcastHub::with_instrumentation(hub_config, telemetry.clone(), config.metrics.as_ref());
    let serve_metrics = config.metrics.as_ref().map(ServeMetrics::new);
    let conn_metrics = config.metrics.as_ref().map(|registry| ConnMetrics {
        registry: registry.clone(),
        stats_every: config.stats_every,
        frame_write_ns: registry.histogram("serve.frame_write_ns"),
        wire_bytes: registry.counter("serve.wire_bytes"),
    });
    // The cadence is clamped to the ring so a joiner's catch-up always
    // contains a key frame to anchor its delta chain on.
    let keyframe_every = config.keyframe_every.min(config.ring_capacity as u64);
    let mut encoder = CadenceEncoder::new(keyframe_every);
    if let Some(registry) = &config.metrics {
        encoder.instrument(registry);
    }
    if keyframe_every > 0 {
        hub.set_catchup_rewrite(rewrite_delta_catchup);
    }
    let serve_started = Instant::now();
    let handle = hub.handle();
    let stop = AtomicBool::new(false);
    let mut encoded_bytes = 0u64;
    let mut drive_result: Result<(), StreamError> = Ok(());

    std::thread::scope(|scope| {
        let acceptor_handle = handle.clone();
        let acceptor_telemetry = telemetry.clone();
        let acceptor_metrics = serve_metrics.clone();
        let acceptor_conn_metrics = conn_metrics.clone();
        let manifest_frame = &manifest_frame;
        let stop = &stop;
        let listener = &listener;
        let write_timeout = config.write_timeout;
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((socket, peer)) => {
                        if let Some(m) = &acceptor_metrics {
                            m.accept_ns.record(serve_started.elapsed());
                            m.connections.inc();
                        }
                        let sub = acceptor_handle.subscribe(StartOffset::Origin);
                        if let Some(t) = &acceptor_telemetry {
                            t.publish(TelemetryEvent::PeerConnected {
                                subscriber: sub.id(),
                                peer: peer.to_string(),
                            });
                        }
                        let conn_handle = acceptor_handle.clone();
                        let manifest_frame = manifest_frame.clone();
                        let conn_metrics = acceptor_conn_metrics.clone();
                        scope.spawn(move || {
                            write_connection(
                                socket,
                                sub,
                                manifest_frame,
                                conn_handle,
                                write_timeout,
                                conn_metrics,
                            )
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
        });

        // Hold the first window until the expected roster has joined (or
        // the wait times out), so classes start together.
        let roster_deadline = Instant::now() + config.roster_timeout;
        while handle.subscribers_joined() < config.wait_for && Instant::now() < roster_deadline {
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut sent = 0usize;
        while sent < config.max_windows {
            if config.stop_when_empty
                && handle.subscribers_joined() > 0
                && handle.subscriber_count() == 0
            {
                break;
            }
            match stream.next_window() {
                Ok(Some(report)) => {
                    let index = report.stats.window_index;
                    let encode_timer =
                        StageTimer::start(serve_metrics.as_ref().map(|m| &m.encode_ns));
                    let encoded = encoder.encode(&report);
                    let framed = if encoded.delta {
                        encode_delta_frame(&encoded.bytes)
                    } else {
                        encode_window_frame(&encoded.bytes)
                    };
                    encode_timer.finish();
                    let len = encoded.bytes.len() as u64;
                    encoded_bytes += len;
                    if let Some(m) = &serve_metrics {
                        m.windows_encoded.inc();
                        m.encoded_bytes.add(len);
                    }
                    hub.publish_window(index, framed.into());
                    sent += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    drive_result = Err(e);
                    break;
                }
            }
        }

        // Stop accepting, then disconnect the hub: writers drain whatever
        // is buffered, append their close frames, and exit. The scope join
        // proves no writer thread outlives the serve call.
        stop.store(true, Ordering::Relaxed);
        hub.close();
    });

    // A peer that squeezed in between close and the acceptor noticing the
    // stop flag still lands in the final summary: close is idempotent.
    let broadcast = hub.close();
    drive_result?;
    // Every writer has been joined and the hub is closed, so the roster
    // reports are final: copy them into per-peer counters, then snapshot.
    let snapshot = config.metrics.as_ref().map(|registry| {
        for report in &broadcast.reports {
            // tw-analyze: allow(metric-name-registry, "runtime expansion of the serve.peer.*.{delivered,dropped,missed} wildcards declared in metrics.toml")
            let peer = |what: &str| registry.counter(&format!("serve.peer.{}.{what}", report.id));
            peer("delivered").add(report.delivered);
            peer("dropped").add(report.dropped);
            peer("missed").add(report.missed);
        }
        registry.snapshot()
    });
    Ok(ServeSummary {
        encoded_bytes,
        broadcast,
        snapshot,
    })
}

/// Join-time rewrite of the catch-up ring for delta serving: a joiner that
/// lands mid-chain cannot decode a delta frame without its base, so anchor
/// on the newest key frame at or before the join point, roll the delta
/// chain forward, and hand the joiner one freshly encoded full frame
/// followed by the raw remainder of the ring. Joiners landing on a key
/// frame get the untouched suffix; a join point no key frame covers falls
/// forward to the next one, booking the gap as missed exactly like ring
/// fall-off.
fn rewrite_delta_catchup(ring: &[(u64, Arc<[u8]>)], start_window: u64) -> Vec<(u64, Arc<[u8]>)> {
    let first = match ring.first() {
        Some((index, _)) => *index,
        None => return Vec::new(),
    };
    let start = (start_window.saturating_sub(first) as usize).min(ring.len());
    if start == ring.len() {
        return Vec::new();
    }
    let is_keyframe =
        |entry: &(u64, Arc<[u8]>)| matches!(split_frame(&entry.1), Ok((FrameKind::Window, _)));
    if is_keyframe(&ring[start]) {
        return ring[start..].to_vec();
    }
    let Some(anchor) = ring[..start].iter().rposition(is_keyframe) else {
        return match ring[start..].iter().position(is_keyframe) {
            Some(offset) => ring[start + offset..].to_vec(),
            None => Vec::new(),
        };
    };
    let mut scratch = DecodeScratch::new();
    let mut joined: Option<WindowReport> = None;
    for (_, frame) in &ring[anchor..=start] {
        let Ok((_, payload)) = split_frame(frame) else {
            return ring[start..].to_vec();
        };
        match decode_window_into(payload, &mut scratch) {
            Ok(report) => joined = Some(report),
            // The server published this chain itself, so it decodes; if it
            // somehow does not, fall back to the raw suffix rather than
            // dropping the joiner.
            Err(_) => return ring[start..].to_vec(),
        }
    }
    let Some(report) = joined else {
        return ring[start..].to_vec();
    };
    let mut out: Vec<(u64, Arc<[u8]>)> = Vec::with_capacity(ring.len() - start);
    out.push((
        ring[start].0,
        encode_window_frame(&encode_window(&report)).into(),
    ));
    out.extend(ring[start + 1..].iter().cloned());
    out
}

/// One connection's writer: manifest, every received frame, close summary.
///
/// Any write failure (dead peer, `write_timeout` elapsed against a stalled
/// one) drops the subscription, which the hub retires with its counters
/// intact — the class never waits on this connection again.
fn write_connection(
    mut socket: TcpStream,
    sub: HubSubscription<Arc<[u8]>>,
    manifest_frame: Arc<[u8]>,
    handle: HubHandle<Arc<[u8]>>,
    write_timeout: Duration,
    metrics: Option<ConnMetrics>,
) {
    let _ = socket.set_nodelay(true);
    let _ = socket.set_write_timeout(Some(write_timeout));
    let metrics = metrics.as_ref();
    if write_frame_metered(&mut socket, &manifest_frame, metrics).is_err() {
        return;
    }
    let mut windows_since_stats = 0u64;
    while let Some(frame) = sub.recv() {
        if write_frame_metered(&mut socket, &frame, metrics).is_err() {
            return;
        }
        if let Some(m) = metrics.filter(|m| m.stats_every > 0) {
            windows_since_stats += 1;
            if windows_since_stats >= m.stats_every {
                windows_since_stats = 0;
                let stats = encode_stats_frame(&m.registry.snapshot());
                if write_frame_metered(&mut socket, &stats, metrics).is_err() {
                    return;
                }
            }
        }
    }
    // The channel disconnected: the broadcast is over and the counters are
    // final. With wire stats on, one last snapshot captures the session's
    // final state (`serve.windows_encoded` included, since every publish
    // precedes the hub close that disconnected us).
    if let Some(m) = metrics.filter(|m| m.stats_every > 0) {
        let stats = encode_stats_frame(&m.registry.snapshot());
        if write_frame_metered(&mut socket, &stats, metrics).is_err() {
            return;
        }
    }
    // Echo this connection's accounting so the peer knows whether the
    // stream it saw was complete.
    let close = CloseSummary {
        windows: handle.windows_broadcast(),
        delivered: sub.delivered(),
        dropped: sub.dropped(),
        missed: sub.missed(),
    };
    let _ = write_frame_metered(&mut socket, &encode_close_frame(&close), metrics);
}

/// Bind an ephemeral loopback listener (test/CLI convenience).
pub fn loopback_listener() -> Result<TcpListener, ServeError> {
    TcpListener::bind("127.0.0.1:0").map_err(|e| ServeError::Io(format!("bind 127.0.0.1:0: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientStream;
    use tw_ingest::{collect_stream, Pipeline, PipelineConfig, Scenario, SteadyWindows};

    fn ddos_pipeline(nodes: u32) -> Pipeline {
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            shard_count: 2,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        Pipeline::new(Scenario::Ddos.source(nodes, 7), config)
    }

    #[test]
    fn serves_a_pipeline_to_two_clients_cell_for_cell() {
        let reference = ddos_pipeline(64).run(3);
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            scenario: "ddos".to_string(),
            seed: 7,
            wait_for: 2,
            max_windows: 3,
            ..ServeConfig::default()
        };
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = ClientStream::connect(addr).unwrap();
                        let windows = collect_stream(&mut client, usize::MAX).unwrap();
                        (windows, client)
                    })
                })
                .collect();
            let mut stream = ddos_pipeline(64);
            let summary = serve(listener, &mut stream, &config, None).unwrap();
            assert_eq!(summary.windows(), 3);
            assert_eq!(summary.connections(), 2);
            assert!(summary.encoded_bytes > 0);
            assert_eq!(summary.broadcast.conservation_error(), None);
            for client in clients {
                let (windows, client) = client.join().unwrap();
                assert_eq!(windows.len(), 3);
                for (reference, got) in reference.iter().zip(&windows) {
                    assert_eq!(reference.matrix, got.matrix, "cell-for-cell");
                    assert_eq!(reference.stats.window_index, got.stats.window_index);
                }
                assert_eq!(client.manifest().scenario, "ddos");
                assert_eq!(client.manifest().node_count, 64);
                assert_eq!(client.manifest().windows, Some(3));
                let close = client.close_summary().expect("close frame arrived");
                assert_eq!(close.windows, 3);
                assert_eq!(close.delivered, 3);
                assert_eq!(close.dropped, 0);
            }
        });
    }

    #[test]
    fn late_joiner_receives_a_contiguous_window_suffix() {
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            scenario: "ddos".to_string(),
            seed: 7,
            wait_for: 1,
            max_windows: 6,
            ..ServeConfig::default()
        };
        std::thread::scope(|scope| {
            let on_time = scope.spawn(move || {
                let mut client = ClientStream::connect(addr).unwrap();
                collect_stream(&mut client, usize::MAX).unwrap().len()
            });
            let late = scope.spawn(move || {
                // Join mid-broadcast; the ring catches us up, so whatever we
                // see is a contiguous suffix ending at the last window.
                std::thread::sleep(Duration::from_millis(30));
                let mut client = ClientStream::connect(addr).unwrap();
                let windows = collect_stream(&mut client, usize::MAX).unwrap();
                let close = *client.close_summary().expect("clean close");
                let indices: Vec<u64> = windows.iter().map(|w| w.stats.window_index).collect();
                (indices, close)
            });
            // Pace the stream a little (50 ms windows at 5x = one window
            // every 10 ms) so "late" lands mid-broadcast.
            let mut stream = tw_ingest::Paced::new(ddos_pipeline(32), 5);
            let summary = serve(listener, &mut stream, &config, None).unwrap();
            assert_eq!(summary.windows(), 6);
            assert_eq!(on_time.join().unwrap(), 6);
            let (indices, close) = late.join().unwrap();
            // A contiguous run ending at the final window (possibly all 6 if
            // the ring covered everything, possibly fewer).
            assert!(!indices.is_empty(), "ring catch-up yields at least one");
            assert_eq!(*indices.last().unwrap(), 5);
            for pair in indices.windows(2) {
                assert_eq!(pair[1], pair[0] + 1, "suffix is contiguous");
            }
            assert_eq!(close.windows, 6);
            assert_eq!(
                close.delivered + close.missed,
                6,
                "delivered + missed accounts every window for an undropped peer"
            );
        });
    }

    #[test]
    fn delta_serving_is_cell_for_cell_and_counts_codec_metrics() {
        // Steady windows ship deltas between the key frames at windows 0
        // and 3; bursty ddos windows, each delta larger than its window in
        // full, fall back to full frames throughout and save nothing.
        let cases: [(Box<dyn WindowStream>, Vec<WindowReport>, u64); 2] = [
            (
                Box::new(SteadyWindows::new(64, 400, 6, 7)),
                SteadyWindows::new(64, 400, 6, 7).collect(),
                4,
            ),
            (Box::new(ddos_pipeline(64)), ddos_pipeline(64).run(6), 0),
        ];
        for (mut stream, reference, deltas) in cases {
            let listener = loopback_listener().unwrap();
            let addr = listener.local_addr().unwrap();
            let config = ServeConfig {
                wait_for: 2,
                max_windows: 6,
                keyframe_every: 3,
                metrics: Some(tw_metrics::MetricsRegistry::new()),
                ..ServeConfig::default()
            };
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut client = ClientStream::connect(addr).unwrap();
                            collect_stream(&mut client, usize::MAX).unwrap()
                        })
                    })
                    .collect();
                let summary = serve(listener, &mut stream, &config, None).unwrap();
                assert_eq!(summary.windows(), 6);
                assert_eq!(summary.broadcast.conservation_error(), None);
                let snapshot = summary.snapshot.as_ref().expect("metrics were on");
                assert_eq!(snapshot.counter("codec.keyframes"), 6 - deltas);
                assert_eq!(snapshot.counter("codec.delta_windows"), deltas);
                assert_eq!(snapshot.counter("codec.bytes_saved") == 0, deltas == 0);
                for client in clients {
                    let windows = client.join().unwrap();
                    assert_eq!(windows.len(), 6);
                    for (reference, got) in reference.iter().zip(&windows) {
                        assert_eq!(reference.matrix, got.matrix, "cell-for-cell");
                        assert_eq!(reference.stats.window_index, got.stats.window_index);
                    }
                }
            });
        }
    }

    #[test]
    fn late_joiner_mid_chain_gets_a_materialized_key_frame() {
        let reference: Vec<WindowReport> = SteadyWindows::new(32, 200, 6, 7).collect();
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            scenario: "steady".to_string(),
            seed: 7,
            wait_for: 1,
            max_windows: 6,
            // Cadence 5 over 6 windows: only windows 0 and 5 are key
            // frames, so a mid-broadcast join almost surely lands on a
            // delta and exercises the roll-forward rewrite.
            keyframe_every: 5,
            ..ServeConfig::default()
        };
        std::thread::scope(|scope| {
            let on_time_reference = &reference;
            let on_time = scope.spawn(move || {
                // Drive the stream by hand, handing each finished matrix
                // back: from the second window on, decodes build into the
                // recycled buffers instead of allocating.
                let mut client = ClientStream::connect(addr).unwrap();
                let mut seen = 0usize;
                while let Some(report) = client.next_window().unwrap() {
                    let want = &on_time_reference[report.stats.window_index as usize];
                    assert_eq!(want.matrix, report.matrix, "on-time cell-for-cell");
                    seen += 1;
                    client.recycle(report.matrix);
                }
                (seen, client.decode_reuse_hits())
            });
            let late = scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(25));
                let mut client = ClientStream::connect(addr).unwrap();
                let windows = collect_stream(&mut client, usize::MAX).unwrap();
                let close = *client.close_summary().expect("clean close");
                (windows, close)
            });
            let mut stream = tw_ingest::Paced::new(SteadyWindows::new(32, 200, 6, 7), 5);
            let summary = serve(listener, &mut stream, &config, None).unwrap();
            assert_eq!(summary.windows(), 6);
            let (on_time_seen, reuse_hits) = on_time.join().unwrap();
            assert_eq!(on_time_seen, 6);
            assert!(reuse_hits > 0, "steady decode recycles buffers");
            let (late_windows, close) = late.join().unwrap();
            assert!(!late_windows.is_empty(), "catch-up yields at least one");
            let indices: Vec<u64> = late_windows.iter().map(|w| w.stats.window_index).collect();
            assert_eq!(*indices.last().unwrap(), 5);
            for pair in indices.windows(2) {
                assert_eq!(pair[1], pair[0] + 1, "suffix is contiguous");
            }
            for got in &late_windows {
                let reference = &reference[got.stats.window_index as usize];
                assert_eq!(reference.matrix, got.matrix, "late joiner cell-for-cell");
                assert_eq!(reference.stats.events, got.stats.events);
            }
            assert_eq!(close.delivered + close.missed, 6, "conservation");
        });
    }

    #[test]
    fn stream_error_mid_serve_still_closes_peers_cleanly() {
        use crate::chaos::ChaosStream;
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            wait_for: 1,
            ..ServeConfig::default()
        };
        std::thread::scope(|scope| {
            let client = scope.spawn(move || {
                let mut client = ClientStream::connect(addr).unwrap();
                let windows = collect_stream(&mut client, usize::MAX).unwrap();
                (windows.len(), *client.close_summary().unwrap())
            });
            let mut stream = ChaosStream::new(ddos_pipeline(32), 2);
            let err = serve(listener, &mut stream, &config, None).unwrap_err();
            assert!(matches!(err, ServeError::Stream(StreamError::Frame(_))));
            let (seen, close) = client.join().unwrap();
            assert_eq!(seen, 2, "both pre-fault windows arrived");
            assert_eq!(close.windows, 2);
            assert_eq!(close.delivered, 2);
        });
    }

    #[test]
    fn refuses_streams_beyond_the_codec_limit_before_serving() {
        // A stream the codec cannot encode must fail up front: serving it
        // would panic in `encode_window` inside the thread scope and leave
        // the acceptor polling a stop flag nobody sets.
        struct Oversized;
        impl WindowStream for Oversized {
            fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
                Ok(None)
            }
            fn node_count(&self) -> usize {
                MAX_DIMENSION + 1
            }
            fn window_us(&self) -> u64 {
                1_000
            }
        }
        let listener = loopback_listener().unwrap();
        let started = Instant::now();
        let err = serve(listener, &mut Oversized, &ServeConfig::default(), None).unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(5), "{err}");
        assert_eq!(
            err,
            ServeError::Codec(CodecError::DimensionTooLarge {
                dimension: MAX_DIMENSION + 1,
                limit: MAX_DIMENSION,
            })
        );
        assert!(err.to_string().contains("codec"), "{err}");
    }
}
