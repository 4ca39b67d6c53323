//! End-to-end query answering using views: plan, materialize, evaluate.
//!
//! This is the "query optimizer" face of the library: given a query and a
//! set of views, [`plan_checked`] finds a probabilistic rewriting (a
//! single-view TP plan or a TP∩ plan, in the order requested by
//! [`PlanPreference`]) and reports a typed [`PlanError`] when none exists.
//! Execution computes the answer **touching only the extensions** — and a
//! TP∩ plan touches only the extensions of the views its parts actually
//! reference ([`Plan::referenced_views`]), exactly as a cache/warehouse
//! would.
//!
//! The stateful, memoizing entry point built on top of this module is
//! `prxview::engine::Engine`.

use crate::system::SqvSystem;
use crate::tp_rewrite::{tp_rewrite, TpRewriting};
use crate::tpi_algorithm::{tpi_rewrite, TpiPart, TpiReject, TpiRewriting};
use crate::tpi_rewrite::VirtualView;
use crate::view::{parse_id_label, ProbExtension, View};
use pxv_pxml::{Label, NodeId, PDocument};
use pxv_tpq::pattern::TreePattern;
use std::collections::BTreeSet;

/// Default bound on the number of interleavings enumerated during TP∩
/// equivalence tests (the "modulo equivalence tests" caveat of Prop. 6).
///
/// This is the single source of truth for the limit: `QueryOptions` in the
/// engine defaults to it and the CLI inherits it from there. Raising it
/// lets TPIrewrite decide equivalence for wider `//`-separated
/// intersections at the cost of (worst-case exponential) planning time.
pub const DEFAULT_INTERLEAVING_LIMIT: usize = 10_000;

/// A chosen probabilistic rewriting.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Single-view plan with compensation (§4; copy semantics suffices).
    Tp(TpRewriting),
    /// Multi-view intersection plan (§5; needs persistent ids).
    Tpi(TpiRewriting),
}

impl Plan {
    /// Short human-readable description (used by examples and the
    /// harness).
    pub fn describe(&self, views: &[View]) -> String {
        match self {
            Plan::Tp(rw) => format!(
                "TP plan: comp(doc({})/{}, {})  [{}]",
                views[rw.view_index].name,
                views[rw.view_index].pattern.output_label(),
                rw.compensation,
                if rw.restricted {
                    "restricted"
                } else {
                    "unrestricted"
                }
            ),
            Plan::Tpi(rw) => {
                let parts: Vec<String> = rw
                    .parts
                    .iter()
                    .map(|p| match &p.compensation {
                        None => format!("doc({})", views[p.view_index].name),
                        Some(c) => format!("comp(doc({}), {})", views[p.view_index].name, c),
                    })
                    .collect();
                format!("TP∩ plan: {}", parts.join(" ∩ "))
            }
        }
    }

    /// Indices (into the planner's view set) of the views whose extensions
    /// this plan reads during execution. A TP plan reads exactly one; a
    /// TP∩ plan reads the distinct base views of its parts — executing the
    /// plan never touches any other extension.
    pub fn referenced_views(&self) -> BTreeSet<usize> {
        match self {
            Plan::Tp(rw) => BTreeSet::from([rw.view_index]),
            Plan::Tpi(rw) => rw.parts.iter().map(|p| p.view_index).collect(),
        }
    }
}

/// Which plan shapes the planner may consider, and in which order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlanPreference {
    /// Try single-view TP plans first (cheaper, no persistent-id
    /// requirement), then TP∩ plans. The default.
    #[default]
    PreferTp,
    /// Try TP∩ plans first, falling back to single-view TP plans.
    PreferTpi,
    /// Only accept single-view TP plans.
    TpOnly,
    /// Only accept TP∩ plans.
    TpiOnly,
}

/// Why the planner produced no probabilistic rewriting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The view set is empty.
    NoViews,
    /// No single-view TP plan exists and TP∩ plans were not considered
    /// ([`PlanPreference::TpOnly`]).
    NoTpPlan,
    /// No plan of any permitted shape; carries TPIrewrite's reason when a
    /// TP∩ plan was attempted.
    NoRewriting(TpiReject),
    /// The query spells an `Id(n)` label, which extensions reserve for
    /// their identity markers: through a view it could match a marker
    /// rather than a document node, so no view answers it.
    ReservedLabel(Label),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoViews => write!(f, "no views registered"),
            PlanError::NoTpPlan => write!(f, "no single-view TP rewriting over these views"),
            PlanError::ReservedLabel(l) => write!(
                f,
                "no view rewriting for a query using the reserved marker label `{l}`"
            ),
            PlanError::NoRewriting(reason) => {
                let why = match reason {
                    TpiReject::NotEquivalent => "the canonical plan is not equivalent to the query",
                    TpiReject::EquivalenceTooExpensive => {
                        "the equivalence test exceeded the interleaving limit"
                    }
                    TpiReject::SystemUnsolvable => {
                        "the S(q,V) probability system has no unique solution"
                    }
                };
                write!(f, "no probabilistic rewriting over these views ({why})")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Finds a probabilistic rewriting of `q` over `views` honouring
/// `preference`, or a typed reason why none exists. A query using an
/// `Id(n)` marker label has none ([`PlanError::ReservedLabel`]), whatever
/// the shape.
///
/// `interleaving_limit` bounds TPIrewrite's equivalence tests; use
/// [`DEFAULT_INTERLEAVING_LIMIT`] unless you have a reason not to.
pub fn plan_checked(
    q: &TreePattern,
    views: &[View],
    interleaving_limit: usize,
    preference: PlanPreference,
) -> Result<Plan, PlanError> {
    if views.is_empty() {
        return Err(PlanError::NoViews);
    }
    if let Some(l) = q
        .node_ids()
        .map(|x| q.label(x))
        .find(|&l| parse_id_label(l).is_some())
    {
        return Err(PlanError::ReservedLabel(l));
    }
    let try_tp = || tp_rewrite(q, views).into_iter().next().map(Plan::Tp);
    let try_tpi = || tpi_rewrite(q, views, interleaving_limit).map(Plan::Tpi);
    match preference {
        PlanPreference::TpOnly => try_tp().ok_or(PlanError::NoTpPlan),
        PlanPreference::TpiOnly => try_tpi().map_err(PlanError::NoRewriting),
        PlanPreference::PreferTp => match try_tp() {
            Some(p) => Ok(p),
            None => try_tpi().map_err(PlanError::NoRewriting),
        },
        PlanPreference::PreferTpi => match try_tpi() {
            Ok(p) => Ok(p),
            Err(reason) => try_tp().ok_or(PlanError::NoRewriting(reason)),
        },
    }
}

/// Candidate original nodes retrievable from a part's extension by
/// navigation (deterministic retrieval — no probabilities involved).
fn part_candidates(part: &TpiPart, ext: &ProbExtension) -> BTreeSet<NodeId> {
    match &part.compensation {
        None => ext.results.iter().map(|r| r.orig).collect(),
        Some(compensation) => ext.candidates(compensation),
    }
}

/// Result of executing a TP∩ plan: the answers plus execution counters
/// surfaced in the engine's per-query stats.
#[derive(Clone, Debug)]
pub struct TpiExecution {
    /// `(node, probability)` answers, sorted by node id.
    pub answers: Vec<(NodeId, f64)>,
    /// Number of candidate nodes that survived the deterministic
    /// intersection and were handed to the probability side.
    pub candidates: usize,
}

/// Evaluates a TP∩ plan, reading extensions through `ext_of`.
///
/// `ext_of` is called only with view indices in
/// [`Plan::referenced_views`]; callers that materialize lazily can thus
/// provide exactly those extensions and panic on anything else.
pub fn execute_tpi<'a>(
    rw: &TpiRewriting,
    ext_of: &dyn Fn(usize) -> &'a ProbExtension,
) -> TpiExecution {
    // Deterministic retrieval: intersect candidates over ALL parts (V′).
    let mut candidates: Option<BTreeSet<NodeId>> = None;
    for part in &rw.parts {
        let c = part_candidates(part, ext_of(part.view_index));
        candidates = Some(match candidates {
            None => c,
            Some(prev) => prev.intersection(&c).copied().collect(),
        });
    }
    let candidates = candidates.unwrap_or_default();
    let n_candidates = candidates.len();
    // Probability retrieval: V″ virtual views feeding the system's fr.
    let vviews: Vec<VirtualView> = rw
        .fr_parts
        .iter()
        .map(|&i| {
            let part = &rw.parts[i];
            let ext = ext_of(part.view_index);
            match &part.tp_descriptor {
                None => VirtualView::from_extension(ext),
                Some(d) => VirtualView::from_compensated(d, ext),
            }
        })
        .collect();
    let system: &SqvSystem = &rw.system;
    let answers = candidates
        .into_iter()
        .map(|n| (n, system.fr(&vviews, n)))
        .filter(|&(_, p)| p > 0.0)
        .collect();
    TpiExecution {
        answers,
        candidates: n_candidates,
    }
}

/// Evaluates a TP∩ plan against pre-materialized extensions, indexed by
/// view position (convenience wrapper over [`execute_tpi`]).
pub fn answer_tpi(rw: &TpiRewriting, extensions: &[ProbExtension]) -> Vec<(NodeId, f64)> {
    execute_tpi(rw, &|i| &extensions[i]).answers
}

/// Direct evaluation baseline (what the rewriting avoids).
pub fn answer_direct(pdoc: &PDocument, q: &TreePattern) -> Vec<(NodeId, f64)> {
    pxv_peval::eval_tp(pdoc, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fr_tp::answer_tp;
    use pxv_pxml::examples_paper::fig2_pper;
    use pxv_tpq::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    fn plan_default(q: &TreePattern, views: &[View]) -> Result<Plan, PlanError> {
        plan_checked(
            q,
            views,
            DEFAULT_INTERLEAVING_LIMIT,
            PlanPreference::PreferTp,
        )
    }

    fn answer_via_plan(
        pdoc: &PDocument,
        q: &TreePattern,
        views: &[View],
    ) -> Result<(Plan, Vec<(NodeId, f64)>), PlanError> {
        let chosen = plan_default(q, views)?;
        let exts: Vec<ProbExtension> = views
            .iter()
            .map(|v| ProbExtension::materialize(pdoc, v))
            .collect();
        let answers = match &chosen {
            Plan::Tp(rw) => answer_tp(rw, &exts[rw.view_index]),
            Plan::Tpi(rw) => answer_tpi(rw, &exts),
        };
        Ok((chosen, answers))
    }

    fn assert_same_answers(got: &[(NodeId, f64)], want: &[(NodeId, f64)], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: {got:?} vs {want:?}");
        for ((n1, p1), (n2, p2)) in got.iter().zip(want) {
            assert_eq!(n1, n2, "{ctx}");
            assert!((p1 - p2).abs() < 1e-9, "{ctx} at {n1}: {p1} vs {p2}");
        }
    }

    #[test]
    fn tp_plan_preferred_for_single_view() {
        let pper = fig2_pper();
        let q = p("IT-personnel//person/bonus[laptop]");
        let views = vec![View::new("v2BON", p("IT-personnel//person/bonus"))];
        let (plan, ans) = answer_via_plan(&pper, &q, &views).expect("plan");
        assert!(matches!(plan, Plan::Tp(_)));
        assert_eq!(plan.referenced_views(), std::iter::once(0).collect());
        assert_same_answers(&ans, &answer_direct(&pper, &q), "qBON/v2BON");
    }

    #[test]
    fn tpi_plan_for_example_15() {
        // qRBON from v1BON ∩ compensated v2BON. No single-view TP plan
        // exists over {v1BON partial, v2BON}? v1BON alone *does* give a TP
        // plan, so drop it to force TP∩: use the two halves.
        let pper = fig2_pper();
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let views = vec![
            View::new("vRick", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("v2BON", p("IT-personnel//person/bonus")),
        ];
        let (chosen, ans) = answer_via_plan(&pper, &q, &views).expect("plan");
        // v1BON admits a TP plan (compensation [laptop]); either plan kind
        // must produce the right numbers.
        let _ = chosen;
        assert_same_answers(&ans, &answer_direct(&pper, &q), "qRBON");
        assert_eq!(ans.len(), 1);
        assert!((ans[0].1 - 0.675).abs() < 1e-9);
    }

    #[test]
    fn forced_tpi_plan_example_16() {
        use pxv_pxml::text::parse_pdocument;
        let q = p("a[1]/b[2]/c[3]/d");
        let views = vec![
            View::new("v1", p("a[1]/b/c[3]/d")),
            View::new("v2", p("a/b[2]/c[3]/d")),
            View::new("v3", p("a[1]/b[2]/c/d")),
            View::new("v4", p("a//d")),
        ];
        let pdoc = parse_pdocument(
            "a#0[ind#1(0.9: 1#2), b#3[ind#4(0.8: 2#5), c#6[ind#7(0.7: 3#8), mux#9(0.6: d#10)]]]",
        )
        .unwrap();
        let (chosen, ans) = answer_via_plan(&pdoc, &q, &views).expect("plan");
        assert!(
            matches!(chosen, Plan::Tpi(_)),
            "{}",
            chosen.describe(&views)
        );
        assert_same_answers(&ans, &answer_direct(&pdoc, &q), "example 16");
    }

    #[test]
    fn execute_tpi_only_touches_referenced_extensions() {
        // Example 16's plan references all 4 views; add a decoy view the
        // plan cannot use and check execution never asks for it.
        use pxv_pxml::text::parse_pdocument;
        let q = p("a[1]/b[2]/c[3]/d");
        let views = vec![
            View::new("v1", p("a[1]/b/c[3]/d")),
            View::new("v2", p("a/b[2]/c[3]/d")),
            View::new("v3", p("a[1]/b[2]/c/d")),
            View::new("v4", p("a//d")),
            View::new("decoy", p("zzz//zzz")),
        ];
        let pdoc = parse_pdocument(
            "a#0[ind#1(0.9: 1#2), b#3[ind#4(0.8: 2#5), c#6[ind#7(0.7: 3#8), mux#9(0.6: d#10)]]]",
        )
        .unwrap();
        let chosen = plan_default(&q, &views).expect("plan");
        let referenced = chosen.referenced_views();
        assert!(!referenced.contains(&4), "decoy must not be referenced");
        let exts: Vec<Option<ProbExtension>> = (0..views.len())
            .map(|i| {
                referenced
                    .contains(&i)
                    .then(|| ProbExtension::materialize(&pdoc, &views[i]))
            })
            .collect();
        let Plan::Tpi(rw) = &chosen else {
            panic!("expected TP∩ plan")
        };
        let exec = execute_tpi(rw, &|i| {
            exts[i]
                .as_ref()
                .expect("execution touched an unreferenced extension")
        });
        assert!(exec.candidates >= exec.answers.len());
        assert_same_answers(
            &exec.answers,
            &answer_direct(&pdoc, &q),
            "example 16 sparse",
        );
    }

    #[test]
    fn no_views_no_plan() {
        let q = p("a/b[c]");
        assert_eq!(plan_default(&q, &[]).err(), Some(PlanError::NoViews));
        // Example 11's view admits no probabilistic plan at all.
        let views = vec![View::new("v", p("a[.//c]/b"))];
        assert!(matches!(
            plan_default(&q, &views).err(),
            Some(PlanError::NoRewriting(_))
        ));
    }

    #[test]
    fn plan_preferences_respected() {
        let pper = fig2_pper();
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let views = vec![
            View::new("vRick", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("v2BON", p("IT-personnel//person/bonus")),
        ];
        let tp = plan_checked(&q, &views, 5_000, PlanPreference::TpOnly).expect("TP plan");
        assert!(matches!(tp, Plan::Tp(_)));
        let tpi = plan_checked(&q, &views, 5_000, PlanPreference::TpiOnly).expect("TP∩ plan");
        assert!(matches!(tpi, Plan::Tpi(_)));
        let prefer_tpi =
            plan_checked(&q, &views, 5_000, PlanPreference::PreferTpi).expect("some plan");
        assert!(matches!(prefer_tpi, Plan::Tpi(_)));
        // Both evaluate to the same answers.
        let exts: Vec<ProbExtension> = views
            .iter()
            .map(|v| ProbExtension::materialize(&pper, v))
            .collect();
        let Plan::Tp(tp_rw) = &tp else { unreachable!() };
        let Plan::Tpi(tpi_rw) = &tpi else {
            unreachable!()
        };
        assert_same_answers(
            &answer_tp(tp_rw, &exts[0]),
            &answer_tpi(tpi_rw, &exts),
            "TP vs TP∩",
        );
        // TpOnly over views that only admit TP∩ reports NoTpPlan.
        let halves = vec![
            View::new("va", p("a[1]/b/c")),
            View::new("vb", p("a/b[2]/c")),
        ];
        let q2 = p("a[1]/b[2]/c");
        assert_eq!(
            plan_checked(&q2, &halves, 5_000, PlanPreference::TpOnly).err(),
            Some(PlanError::NoTpPlan)
        );
    }

    #[test]
    fn plan_errors_render() {
        assert_eq!(PlanError::NoViews.to_string(), "no views registered");
        assert!(PlanError::NoRewriting(TpiReject::SystemUnsolvable)
            .to_string()
            .contains("no unique solution"));
    }

    #[test]
    fn plan_descriptions_render() {
        let q = p("IT-personnel//person/bonus[laptop]");
        let views = vec![View::new("v2BON", p("IT-personnel//person/bonus"))];
        let pl = plan_default(&q, &views).unwrap();
        let s = pl.describe(&views);
        assert!(s.contains("doc(v2BON)"), "{s}");
        assert!(s.contains("restricted"), "{s}");
    }
}
