//! # pxv-peval — probabilistic evaluation of tree patterns
//!
//! Stands in for the query-evaluation engine of Kimelfeld et al. \[22\] that
//! the paper assumes: exact probabilities of TP / TP∩ answers over
//! p-documents in polynomial time in the data (worst-case exponential in
//! the query, matching the known complexity envelope).
//!
//! * [`dp`] — the production bitmask dynamic program;
//! * [`exact`] — ground-truth evaluation by possible-world enumeration;
//! * [`mc`] — Monte-Carlo estimation;
//! * [`api`] — `eval_tp`, `eval_tp_at`, `eval_intersection_at`,
//!   `joint_probability`.

#![warn(missing_docs)]

pub mod api;
pub mod dp;
pub mod exact;
pub mod mc;
mod table;

pub use api::{
    candidates, eval_intersection_at, eval_tp, eval_tp_at, eval_tp_at_anchored, joint_probability,
    prune_to_anchor,
};
