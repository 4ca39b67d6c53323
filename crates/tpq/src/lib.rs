//! # pxv-tpq — tree-pattern queries
//!
//! The query substrate of the reproduction of *Cautis & Kharlamov, VLDB
//! 2012*: tree patterns (TP — XPath with `/`, `//` and predicates, no
//! wildcard), their evaluation, containment and minimization, the
//! structural operations of §4 (prefixes, suffixes, tokens, compensation),
//! and intersections TP∩ with interleavings (§5.1) plus the
//! extended-skeleton fragment.

#![deny(missing_docs)]

pub mod canonical;
pub mod compose;
pub mod containment;
pub mod embed;
pub mod generators;
pub mod intersect;
pub mod parse;
pub mod pattern;
pub mod skeleton;

pub use compose::comp;
pub use containment::{contained_in, equivalent, minimize};
pub use intersect::TpIntersection;
pub use parse::parse_pattern;
pub use pattern::{Axis, QNodeId, TreePattern, MAX_PATTERN_NODES};
// Node labels are interned symbols shared with `pxv-pxml`: pattern
// matching and embedding compare `u32` handles, never strings.
pub use pxv_pxml::{Label, Symbol};
