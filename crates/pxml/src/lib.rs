//! # pxv-pxml — probabilistic XML substrate
//!
//! Data model for the reproduction of *Cautis & Kharlamov, "Answering
//! Queries using Views over Probabilistic XML" (VLDB 2012)*:
//!
//! * [`Document`] — unranked, unordered labeled trees with persistent
//!   [`NodeId`]s (§2 of the paper);
//! * [`PDocument`] — p-documents with `mux`, `ind`, `det` and `exp`
//!   distributional nodes (Definition 1);
//! * [`PxSpace`] — exact possible-world semantics `⟦P̂⟧` (exponential;
//!   ground truth for tests);
//! * Monte-Carlo [`PDocument::sample`];
//! * typed, validated document [`edit`]s (the update path's substrate);
//! * a compact text syntax ([`text`]) and workload [`generators`];
//! * executable reconstructions of the paper's figures
//!   ([`examples_paper`]).

#![deny(missing_docs)]

pub mod document;
pub mod edit;
pub mod examples_paper;
pub mod forest;
pub mod generators;
pub mod label;
pub mod pdocument;
pub mod sample;
pub mod text;
pub mod worlds;

pub use document::{Document, NodeId};
pub use edit::{Edit, EditEffect, EditError};
pub use forest::{Forest, Shape, Slot, Tree};
pub use label::{symbol_count, Label, Symbol};
pub use pdocument::{PDocError, PDocument, PKind};
pub use worlds::PxSpace;
