//! # pxv-rewrite — answering queries using views over probabilistic XML
//!
//! The primary contribution of *Cautis & Kharlamov, VLDB 2012*, in full:
//!
//! * [`view`] — view definitions and (probabilistic) extensions `P̂_v`
//!   with `Id(·)` markers (§3.1);
//! * [`cindep`] — probabilistic condition-independence `⊥`, syntactic
//!   PTime test (Prop. 2);
//! * [`tp_rewrite`](mod@tp_rewrite) / [`fr_tp`] — the **TPrewrite** algorithm (Fig. 6) and
//!   the probability functions of §4 (Thm. 1 restricted plans, Thm. 2
//!   inclusion–exclusion with α patterns);
//! * [`tpi_rewrite`](mod@tpi_rewrite) — the virtual views a TP∩ plan
//!   intersects and the NP-hard search for a pairwise c-independent cover
//!   (Thm. 4, gadgets in [`hardness`]);
//! * [`dviews`] / [`system`] — view decompositions and the `S(q,V)`
//!   log-linear system (Thm. 5, Prop. 5), solved exactly over rationals
//!   ([`rational`]); Thm. 3's product for pairwise c-independent views is
//!   its special case;
//! * [`tpi_algorithm`] — **TPIrewrite** (Fig. 7) with compensated views
//!   (Prop. 6);
//! * [`answer`] — the end-to-end planner/executor that answers queries
//!   touching only materialized extensions.

#![deny(missing_docs)]

pub mod answer;
pub mod cindep;
pub mod dviews;
pub mod explain;
pub mod fr_tp;
pub mod hardness;
pub mod rational;
pub mod system;
pub mod tp_rewrite;
pub mod tpi_algorithm;
pub mod tpi_rewrite;
pub mod view;

pub use answer::{
    answer_direct, execute_tpi, plan_checked, Plan, PlanError, PlanPreference, TpiExecution,
    DEFAULT_INTERLEAVING_LIMIT,
};
pub use cindep::c_independent;
pub use tp_rewrite::{tp_rewrite, TpRewriting};
pub use tpi_algorithm::{tpi_rewrite, TpiRewriting};
pub use view::{DeltaOutcome, ProbExtension, View};
