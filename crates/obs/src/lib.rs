//! # pxv-obs — the observability substrate
//!
//! Every other layer of the system produces telemetry: the engine counts
//! queries and cache traffic, the server histograms request latency, the
//! catalog logs evictions, the store writes snapshots. Before this crate
//! each of those was a one-off — an `AtomicU64` here, a
//! `Mutex<VecDeque>` there — with no shared vocabulary, no export
//! format, and no way to ask *where a slow query spent its time*. This
//! crate is the shared vocabulary, std-only and dependency-free so every
//! layer (including `pxv-peval` at the bottom of the stack) can use it
//! without cycles:
//!
//! - [`ring::Ring`] — a bounded ring buffer that drops the oldest entry
//!   on overflow and counts what it dropped. Backs the engine's eviction
//!   log, the server's slow-query log, and the per-thread span rings.
//! - [`metrics`] — counters, gauges and fixed-bucket power-of-two
//!   histograms behind cloneable atomic handles, a [`metrics::Registry`]
//!   that names them, and Prometheus text exposition
//!   ([`metrics::Exposition`]) for the server's `METRICS` verb. Metric
//!   names follow `pxv_<layer>_<name>` (see `DESIGN.md` §12).
//! - [`span`] — a lightweight tracing facade: [`span::Span::enter`]
//!   costs two relaxed atomic loads when nothing records, and records
//!   monotonic-clock timings — stamped with a causal
//!   `(trace_id, span_id, parent_id)` identity — into a per-thread
//!   bounded ring when the process-wide [`span::Recorder`] or an
//!   installed [`trace::TraceContext`] is active.
//! - [`trace`] — request-scoped causal tracing: [`trace::TraceContext`]
//!   names a request, propagates across worker handoffs by explicit
//!   capture/install, optionally mirrors the request's spans into a
//!   bounded [`trace::FlightRecorder`], and [`trace::build_trees`]
//!   reassembles drained spans into per-request trees.
//! - [`export`] — Chrome `trace_event` JSON and plain-text renderings
//!   of drained spans, plus a std-only JSON parser/checker shared by
//!   tests and the CI trace-smoke job (`harness trace-check`).
//! - [`profile`] — the per-query flight record: a stage breakdown
//!   (parse / plan / cache-probe / materialize / eval / serialize) that
//!   `pxv_engine::QueryOptions::profile(true)` makes an `Answer` carry,
//!   and the server's `PROFILE` verb serializes.
//! - [`slow`] — a thresholded slow-request log over a bounded ring,
//!   dumped by the server's `STATS SLOW` verb.
//! - [`keys`] — the canonical `STATS` wire-key list, so the server, the
//!   client and the e2e tests can never drift apart on key names.
//!
//! ```
//! use pxv_obs::metrics::Registry;
//!
//! let registry = Registry::new();
//! let requests = registry.counter("pxv_demo_requests_total", "Requests handled.");
//! let latency = registry.histogram("pxv_demo_request_us", "Request latency (µs).");
//! requests.inc();
//! latency.record(420);
//! let text = registry.render();
//! assert!(text.contains("pxv_demo_requests_total 1"));
//! assert!(text.contains("pxv_demo_request_us_count 1"));
//! ```

#![deny(missing_docs)]

pub mod export;
pub mod keys;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod slow;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Exposition, Gauge, Histogram, Registry};
pub use profile::QueryProfile;
pub use ring::Ring;
pub use slow::{SlowLog, SlowRecord};
pub use span::{Recorder, Span, SpanRecord};
pub use trace::{FlightRecorder, TraceContext, TraceTree};
