//! # prxview — Answering Queries using Views over Probabilistic XML
//!
//! Facade crate for a full reproduction of *Cautis & Kharlamov, VLDB
//! 2012*. See README.md for a tour and DESIGN.md for the architecture
//! (layer diagram: pxml → tpq → peval → rewrite → engine).
//!
//! The primary entry point is the stateful [`engine::Engine`], which owns
//! a catalog of views and answers queries — one at a time or in
//! concurrent batches ([`engine::Engine::answer_batch`]) — from
//! lazily-materialized, memoized view extensions. The extension cache is
//! sharded with single-flight materialization, so parallel queries share
//! work instead of serializing on it; node labels are interned
//! [`pxml::Symbol`]s, so all structural matching compares `u32`s:
//!
//! ```
//! use prxview::engine::Engine;
//! use prxview::pxml::text::parse_pdocument;
//! use prxview::rewrite::View;
//! use prxview::tpq::parse::parse_pattern;
//!
//! let mut engine = Engine::new();
//! let doc = engine
//!     .add_document("demo", parse_pdocument("a[mux(0.4: b[c], 0.6: b)]").unwrap())
//!     .unwrap();
//! engine
//!     .register_view(View::new("bs", parse_pattern("a/b").unwrap()))
//!     .unwrap();
//!
//! let q = parse_pattern("a/b[c]").unwrap();
//! let answer = engine.answer(doc, &q).unwrap();
//! assert_eq!(answer.nodes.len(), 1);
//! assert!((answer.nodes[0].1 - 0.4).abs() < 1e-9);
//! assert!(answer.from_views()); // computed from the extension alone
//! ```
//!
//! The underlying layers remain available (and re-exported) for direct
//! use: [`pxml`] (p-documents), [`tpq`] (tree patterns), [`peval`]
//! (probabilistic evaluation), [`rewrite`] (TPrewrite / TPIrewrite and
//! plan execution), [`engine`] (the stateful facade, its own crate
//! `pxv-engine`), [`store`] (`pxv-store`: persistent binary snapshots —
//! `Engine::snapshot_to` / `Engine::restore_from` give warm restarts
//! with bit-identical answers), [`server`] (`pxv-server`: the `prxd`
//! TCP serving layer — wire protocol, threaded server, blocking client,
//! `prxload`), and [`obs`] (`pxv-obs`: metrics, causal span tracing and
//! the Chrome trace exporter).

#![warn(missing_docs)]

pub use pxv_engine as engine;
pub use pxv_obs as obs;
pub use pxv_peval as peval;
pub use pxv_pxml as pxml;
pub use pxv_rewrite as rewrite;
pub use pxv_server as server;
pub use pxv_store as store;
pub use pxv_tpq as tpq;
