//! Why-provenance of probability values — the future-work direction the
//! paper sketches in §7 ("keeping and exploiting for rewritings a sort of
//! why-provenance of probability values").
//!
//! An [`Explanation`] records *how* `fr(n)` was assembled from view-result
//! quantities: which formula fired (Theorem 1 division, Eq. 1
//! inclusion–exclusion, Theorem 5 rational-exponent product) and the
//! numeric provenance of every term. Rendering one gives
//! an auditable derivation like:
//!
//! ```text
//! fr(n5) by Theorem 1 over view v2BON:
//!   β(n5)                           = 1
//!   Pr(n ∈ q_(k)(P^n_v))            = 0.9
//!   ÷ Pr(n ∈ v_(k)(P^n_v))          = 1
//!   = 0.9
//! ```

use crate::system::SqvSystem;
use crate::tp_rewrite::TpRewriting;
use crate::tpi_rewrite::VirtualView;
use crate::view::ProbExtension;
use pxv_pxml::NodeId;
use std::fmt;

/// One inclusion–exclusion term over a subset of selected ancestors.
#[derive(Clone, Debug)]
pub struct IeTerm {
    /// Original ids of the ancestors in the subset (shallowest first).
    pub ancestors: Vec<NodeId>,
    /// +1 / −1 per the inclusion–exclusion sign.
    pub sign: f64,
    /// `Pr(⋂ e_i)` for this subset.
    pub value: f64,
}

/// A derivation of `fr(n)`.
#[derive(Clone, Debug)]
pub enum Explanation {
    /// The node is not retrievable: `fr(n) = 0`.
    NotAnAnswer {
        /// The node.
        node: NodeId,
    },
    /// Theorem 1 (restricted / unique-ancestor) division formula.
    Restricted {
        /// The node.
        node: NodeId,
        /// View name.
        view: String,
        /// The unique selected ancestor.
        ancestor: NodeId,
        /// `Pr(ancestor ∈ v(P))` — bundled in the extension.
        beta: f64,
        /// Compensation match probability inside the result subtree.
        numerator: f64,
        /// Output-predicate probability divided away.
        denominator: f64,
        /// Final value.
        result: f64,
    },
    /// Lemma 1 / Theorem 2: inclusion–exclusion over ancestor events.
    InclusionExclusion {
        /// The node.
        node: NodeId,
        /// View name.
        view: String,
        /// All subset terms.
        terms: Vec<IeTerm>,
        /// Final value.
        result: f64,
    },
    /// Theorem 5: product with rational exponents from `S(q,V)`.
    System {
        /// The node.
        node: NodeId,
        /// `(view pattern, Pr(n ∈ vi(P)), exponent)` per participating view.
        factors: Vec<(String, f64, String)>,
        /// Final value.
        result: f64,
    },
}

impl Explanation {
    /// The explained probability.
    pub fn value(&self) -> f64 {
        match self {
            Explanation::NotAnAnswer { .. } => 0.0,
            Explanation::Restricted { result, .. }
            | Explanation::InclusionExclusion { result, .. }
            | Explanation::System { result, .. } => *result,
        }
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Explanation::NotAnAnswer { node } => {
                write!(f, "fr({node}) = 0: {node} is not retrievable from the view")
            }
            Explanation::Restricted {
                node,
                view,
                ancestor,
                beta,
                numerator,
                denominator,
                result,
            } => {
                writeln!(f, "fr({node}) by Theorem 1 over view {view}:")?;
                writeln!(f, "  β({ancestor})                       = {beta}")?;
                writeln!(f, "  Pr(n ∈ q_(k)(P^{ancestor}_v))       = {numerator}")?;
                writeln!(
                    f,
                    "  ÷ Pr({ancestor} ∈ v_(k)(P^{ancestor}_v)) = {denominator}"
                )?;
                write!(f, "  = {result}")
            }
            Explanation::InclusionExclusion {
                node,
                view,
                terms,
                result,
            } => {
                writeln!(
                    f,
                    "fr({node}) by inclusion–exclusion (Eq. 1) over view {view}:"
                )?;
                for t in terms {
                    let names: Vec<String> = t.ancestors.iter().map(|n| n.to_string()).collect();
                    writeln!(
                        f,
                        "  {} Pr(e[{}]) = {}",
                        if t.sign > 0.0 { "+" } else { "−" },
                        names.join(" ∧ "),
                        t.value
                    )?;
                }
                write!(f, "  = {result}")
            }
            Explanation::System {
                node,
                factors,
                result,
            } => {
                writeln!(f, "fr({node}) by the S(q,V) product (Theorem 5):")?;
                for (name, p, e) in factors {
                    writeln!(f, "  Pr(n ∈ {name}(P))^{e} with Pr = {p}")?;
                }
                write!(f, "  = {result}")
            }
        }
    }
}

/// Explains a TP-rewriting's probability at `n` (recomputing the terms the
/// way [`crate::fr_tp::fr_tp`] does).
pub fn explain_tp(rw: &TpRewriting, ext: &ProbExtension, n: NodeId) -> Explanation {
    let anc = ext.results_containing(n);
    if anc.is_empty() {
        return Explanation::NotAnAnswer { node: n };
    }
    let mut fr = crate::fr_tp::Fr::new(rw, ext);
    if anc.len() == 1 {
        let i = anc[0];
        let beta = ext.results[i].prob;
        let numerator = fr.numerator(i, n);
        let denominator = ext.denominators()[i];
        let result = if denominator > 0.0 {
            beta * numerator / denominator
        } else {
            0.0
        };
        return Explanation::Restricted {
            node: n,
            view: ext.view.name.clone(),
            ancestor: ext.results[i].orig,
            beta,
            numerator,
            denominator,
            result,
        };
    }
    // Multiple ancestors: the terms `fr` sums, and the value it returns.
    let result = fr.at(n);
    let terms = fr
        .ie_terms(n, &anc)
        .map(|(subset, sign, value)| IeTerm {
            ancestors: subset.iter().map(|&i| ext.results[i].orig).collect(),
            sign,
            value,
        })
        .collect();
    Explanation::InclusionExclusion {
        node: n,
        view: ext.view.name.clone(),
        terms,
        result,
    }
}

/// Explains a solved `S(q,V)` probability at `n`.
pub fn explain_system(sys: &SqvSystem, views: &[VirtualView], n: NodeId) -> Explanation {
    let Some(coeffs) = &sys.coefficients else {
        return Explanation::NotAnAnswer { node: n };
    };
    let mut factors = Vec::new();
    for (i, c) in coeffs.iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        factors.push((
            views[i].pattern.to_string(),
            views[i].prob(n),
            c.to_string(),
        ));
    }
    let result = sys.fr(views, n);
    if result <= 0.0 {
        return Explanation::NotAnAnswer { node: n };
    }
    Explanation::System {
        node: n,
        factors,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tp_rewrite::tp_rewrite;
    use crate::view::View;
    use pxv_pxml::examples_paper::fig2_pper;
    use pxv_tpq::parse::parse_pattern;

    #[test]
    fn explain_example_13() {
        let pper = fig2_pper();
        let q = parse_pattern("IT-personnel//person/bonus[laptop]").unwrap();
        let view = View::new(
            "v2BON",
            parse_pattern("IT-personnel//person/bonus").unwrap(),
        );
        let rs = tp_rewrite(&q, std::slice::from_ref(&view));
        let ext = ProbExtension::materialize(&pper, &view);
        let ex = explain_tp(&rs[0], &ext, NodeId(5));
        assert!((ex.value() - 0.9).abs() < 1e-9);
        let text = ex.to_string();
        assert!(text.contains("Theorem 1"), "{text}");
        assert!(text.contains("v2BON"), "{text}");
        let ex0 = explain_tp(&rs[0], &ext, NodeId(4040));
        assert_eq!(ex0.value(), 0.0);
        // The explanation recomputes exactly what the evaluator does: same
        // in-place numerator, same memoized denominator, same bits.
        assert!(rs[0].restricted);
        for (n, _) in crate::fr_tp::answer_tp(&rs[0], &ext) {
            let fr = crate::fr_tp::fr_tp(&rs[0], &ext, n);
            let ex = explain_tp(&rs[0], &ext, n);
            assert_eq!(ex.value().to_bits(), fr.to_bits(), "at {n}");
        }
    }

    /// On nodes with several selected ancestors the explanation
    /// reproduces `fr` bit for bit: its terms, summed in order and clamped
    /// as `fr` does, give its result, which is `fr_tp`'s value.
    #[test]
    fn explain_inclusion_exclusion_terms_sum() {
        let cases = [
            // Two nested ancestors: two singletons and one pair.
            (
                "a#0[b#1[ind#2(0.7: b#3[mux#4(0.6: c#5)]), mux#6(0.3: c#7)]]",
                "a//b//c",
                NodeId(5),
                3,
            ),
            // Four nested ancestors: 2^4 − 1 subset terms.
            (
                "a#0[b#1[ind#2(0.9: b#3[ind#4(0.8: b#5[ind#6(0.7: b#7[mux#8(0.6: d#9)])])])]]",
                "a//b//d",
                NodeId(9),
                15,
            ),
        ];
        for (doc, q, n, term_count) in cases {
            let pdoc = pxv_pxml::text::parse_pdocument(doc).unwrap();
            let q = parse_pattern(q).unwrap();
            let view = View::new("bs", parse_pattern("a//b").unwrap());
            let rs = tp_rewrite(&q, std::slice::from_ref(&view));
            let ext = ProbExtension::materialize(&pdoc, &view);
            let ex = explain_tp(&rs[0], &ext, n);
            match &ex {
                Explanation::InclusionExclusion { terms, result, .. } => {
                    assert_eq!(terms.len(), term_count);
                    let mut sum = 0.0;
                    for t in terms {
                        sum += t.sign * t.value;
                    }
                    assert_eq!(sum.clamp(0.0, 1.0).to_bits(), result.to_bits());
                    let fr = crate::fr_tp::fr_tp(&rs[0], &ext, n);
                    assert_eq!(result.to_bits(), fr.to_bits(), "{q} at {n}");
                }
                other => panic!("expected inclusion-exclusion, got {other:?}"),
            }
            // Value agrees with direct evaluation.
            let want = pxv_peval::eval_tp_at(&pdoc, &q, n);
            assert!((ex.value() - want).abs() < 1e-9);
            assert!(ex.to_string().contains("Eq. 1"));
        }
    }

    #[test]
    fn explain_system_factors() {
        use crate::system::build_system;
        use crate::tpi_rewrite::VirtualView;
        let q = parse_pattern("a[1]/b[2]/c").unwrap();
        let patterns = vec![
            parse_pattern("a[1]/b/c").unwrap(),
            parse_pattern("a/b[2]/c").unwrap(),
            parse_pattern("a/b/c").unwrap(),
        ];
        let pdoc = pxv_pxml::text::parse_pdocument(
            "a#0[ind#1(0.6: 1#2), b#3[ind#4(0.7: 2#5), mux#6(0.8: c#7)]]",
        )
        .unwrap();
        let sys = build_system(&q, &patterns);
        let views: Vec<VirtualView> = patterns
            .iter()
            .enumerate()
            .map(|(i, pat)| {
                let v = View::new(format!("v{i}"), pat.clone());
                VirtualView::from_extension(&ProbExtension::materialize(&pdoc, &v))
            })
            .collect();
        let ex = explain_system(&sys, &views, NodeId(7));
        assert!((ex.value() - 0.6 * 0.7 * 0.8).abs() < 1e-9);
        let text = ex.to_string();
        assert!(text.contains("Theorem 5"), "{text}");
        assert!(
            text.contains("^-1"),
            "appearance view has exponent −1: {text}"
        );
    }
}
