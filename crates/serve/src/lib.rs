//! # agatha-serve
//!
//! The online alignment service: turns the streaming
//! [`agatha_core::BatchEngine`] into long-running infrastructure that
//! serves *requests* instead of files.
//!
//! * [`protocol`] — newline-delimited JSON over a local TCP socket.
//! * [`window`] — the deterministic admission-window state machine:
//!   bounded queue (backpressure → immediate 503), window-close batching,
//!   deadline expiry. Driven by explicit clock ticks so tests use
//!   [`agatha_core::clock::MockClock`] instead of sleeps.
//! * [`histogram`] — lock-free fixed-bucket latency recording with
//!   p50/p99/p999 reporting for queue / service / total latency, plus
//!   drop / reject / cancel / starvation counters.
//! * [`daemon`] — the threads: acceptor, per-connection readers/writers,
//!   and the batcher that owns the engine. Deadline-expired requests are
//!   dropped *before kernel dispatch*; a disconnected client cancels its
//!   pending work.
//! * [`client`] — a small blocking client (tests, reference wire
//!   implementation).

#![deny(unsafe_code)]

pub mod client;
pub mod daemon;
pub mod histogram;
pub mod protocol;
pub mod window;

pub use client::{parse_response, Response, ServeClient, Status};
pub use daemon::{serve, serve_with_clock, termination_flag, ServeConfig, ServeHandle};
pub use histogram::{HistogramSnapshot, LatencyHistogram, MetricsSnapshot, ServeMetrics};
pub use window::{AdmissionWindow, Harvest, Pending, WindowCfg};

// Re-export the clock abstraction serve consumers test against.
pub use agatha_core::clock::{Clock, MockClock, SystemClock};
