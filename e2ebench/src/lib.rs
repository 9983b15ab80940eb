//! End-to-end classroom benchmark for the traffic warehouse.
//!
//! One process runs the real classroom path: an event source feeds the
//! `tw-ingest` pipeline (or a recorded archive is replayed), `tw-serve::serve`
//! encodes every window once and fans it out through the `tw-game` broadcast
//! hub, and student threads read the frames back over loopback TCP with
//! `tw-serve::ClientStream`, decoding every window.
//!
//! Everything is measured from outside the program: the benchmark wraps the
//! public seams (an [`EventSource`](tw_ingest::EventSource) around the source,
//! a [`WindowStream`](tw_ingest::WindowStream) around whatever `serve` pulls
//! from, and the student loop around `ClientStream::next_window`) and reads
//! the instrumentation the program already exposes (`Pipeline::instrument`,
//! `ServeConfig::metrics`, `ClientStream::instrument`).
//!
//! * [`workload`] — the workload shapes and their per-session inputs;
//! * [`session`] — one serve session: wrappers, students, correctness gate;
//! * [`probe`] — `/proc` readings for peak RSS and thread/process CPU;
//! * [`digest`] — the window digest students must reproduce;
//! * [`stats`] — medians and percentiles.

pub mod digest;
pub mod probe;
pub mod session;
pub mod stats;
pub mod workload;
