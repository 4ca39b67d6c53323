//! # pxv-server — `prxd`, the TCP query-serving layer
//!
//! Exposes one shared [`pxv_engine::Engine`] over TCP with a hand-rolled,
//! std-only stack: no async runtime, no serialization framework — a
//! line-oriented wire protocol over `std::net`, an evented reactor over
//! `poll(2)`, a small worker pool of plain threads, and a blocking
//! client. Connections are **not** bound to threads: one reactor thread
//! multiplexes every socket (nonblocking, with per-connection read/write
//! buffers and request pipelining) and hands complete requests to the
//! workers, so thousands of connections ride on a handful of threads.
//! The engine side is MVCC: reads resolve against the current published
//! [`pxv_engine::EpochEngine`] epoch and never block on a writer;
//! writers prepare a successor engine privately and publish it with one
//! atomic swap.
//!
//! ```text
//!   clients ══TCP══▶ reactor thread ──jobs──▶ worker pool (N threads)
//!   (many)           poll(2) over:   ◀─done──      │
//!                    listener + conns               ▼
//!                    (nonblocking,            EpochEngine
//!                     rbuf/wbuf,        read:  QUERY/BATCH/WARM/STATS/…
//!                     pipelining,       write: LOAD/VIEW/UPDATE/INVALIDATE/
//!                     `ERR busy` cap)          BUDGET/RESTORE
//!                                              (clone → publish swap)
//! ```
//!
//! The layers:
//!
//! - [`protocol`] — requests, tagged-line responses, typed
//!   [`protocol::ProtocolError`]s; reuses the `pxv_pxml::text` and
//!   `pxv_tpq::parse` display forms, whose round-trip property is
//!   load-bearing here.
//! - [`poll`] — the crate's entire FFI surface: a safe wrapper over
//!   `poll(2)` (std links libc on Unix; no external crates).
//! - [`serve`] — [`serve::serve`] binds a listener and returns a
//!   [`serve::ServerHandle`] (ephemeral ports supported: bind to port 0);
//!   the reactor, graceful shutdown, connection limits, and atomic
//!   [`stats::ServerStats`] with a fixed-bucket latency histogram.
//! - [`client`] — a blocking [`client::Client`] speaking the protocol,
//!   used by the `prxload` load generator, the e2e tests, and the
//!   `remote_query` example.
//!
//! End to end:
//!
//! ```
//! use pxv_server::client::Client;
//! use pxv_server::serve::{serve, ServerConfig};
//!
//! let handle = serve(
//!     pxv_engine::Engine::new(),
//!     &ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
//! )
//! .unwrap();
//! let mut c = Client::connect(handle.addr()).unwrap();
//! c.load_text("hr", "a[mux(0.4: b[c], 0.6: b)]").unwrap();
//! c.view_text("bs", "a/b").unwrap();
//! let answer = c.query_text("hr", "a/b[c]").unwrap();
//! assert_eq!(answer.nodes.len(), 1);
//! assert!((answer.nodes[0].1 - 0.4).abs() < 1e-9);
//! c.quit().unwrap();
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
#[cfg(unix)]
pub mod poll;
pub mod protocol;
pub mod serve;
pub mod stats;
