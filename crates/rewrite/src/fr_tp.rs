//! Probability-retrieving functions `fr` for TP-rewritings (§4.2–§4.4).
//!
//! Everything here consumes **only** the materialized view extension
//! `P̂_v` — per-result probabilities `Pr(ni ∈ v(P))` and probabilities
//! computed inside single result subtrees `P̂^{ni}_v` — never the original
//! p-document. The three regimes:
//!
//! * unique selected ancestor (always the case for *restricted* plans,
//!   Def. 5): Theorem 1's division formula;
//! * multiple ancestors, `u = 0`: inclusion–exclusion (Lemma 1 / Eq. 1)
//!   with per-event terms from Eq. 2 and joint events through `α`
//!   intersection patterns that re-test the view's last token at the
//!   deeper ancestor via its `Id(·)` marker (Theorem 2, case `u = 0`);
//! * multiple ancestors, `u ≥ 1`: the same with the partial-token `α`
//!   when the two ancestors are closer than the token length
//!   (`s(i,j) ≤ m`, Theorem 2, case `u ≥ 1`).

use crate::tp_rewrite::TpRewriting;
use crate::view::{id_label, ProbExtension};
use pxv_pxml::NodeId;
use pxv_tpq::compose::comp;
use pxv_tpq::pattern::{Axis, TreePattern};

/// Adds the `Id(n)` marker as a `/`-predicate on the output of `q`
/// (pins the output to the occurrence of original node `n`).
pub(crate) fn mark_output(q: &TreePattern, n: NodeId) -> TreePattern {
    let mut m = q.clone();
    m.add_child(q.output(), Axis::Child, id_label(n));
    m
}

/// `root_label // sub` as a pattern (used by the full-token `α`).
fn descend_plan(root_label: pxv_pxml::Label, sub: &TreePattern) -> TreePattern {
    let mut q = TreePattern::leaf(root_label);
    let root = q.root();
    let top = q.add_child(root, Axis::Descendant, sub.label(sub.root()));
    let mut map = vec![pxv_tpq::QNodeId(u32::MAX); sub.len()];
    map[sub.root().0 as usize] = top;
    let mut stack = vec![sub.root()];
    while let Some(s) = stack.pop() {
        let d = map[s.0 as usize];
        for &c in sub.children(s) {
            let dc = q.add_child(d, sub.axis(c), sub.label(c));
            map[c.0 as usize] = dc;
            stack.push(c);
        }
    }
    q.set_output(map[sub.output().0 as usize]);
    q
}

/// `fr(n)` for an accepted TP-rewriting: `Pr(n ∈ q(P))` computed from the
/// view extension alone.
///
/// Every DP runs in place on `ext.pdoc` at a result root, and the
/// view-only denominator comes from [`ProbExtension::denominators`]: no
/// result subtree is copied.
pub fn fr_tp(rw: &TpRewriting, ext: &ProbExtension, n: NodeId) -> f64 {
    // Ancestors of n selected by v = results whose subtree contains n,
    // shallowest first.
    let anc = ext.results_containing(n);
    if anc.is_empty() {
        return 0.0;
    }
    // Compensation pinned at n.
    let comp_pinned = mark_output(&rw.compensation, n);

    if anc.len() == 1 {
        // Theorem 1 (also sound & complete whenever the selected ancestor
        // is unique — footnote 3).
        let i = anc[0];
        let r = &ext.results[i];
        let num = pxv_peval::dp::boolean_probability_at(&ext.pdoc, r.ext_root, &comp_pinned);
        let den = ext.denominators()[i];
        if den <= 0.0 {
            return 0.0;
        }
        return r.prob * num / den;
    }

    // General case: inclusion-exclusion over the events
    //   e_i = [n_i ∈ v′(P) ∧ n ∈ q_(k)(P^{n_i})].
    let t = ext.view.pattern.last_token();
    let m = t.mb_len();
    let a = anc.len();
    let mut total = 0.0;
    for mask in 1u32..(1 << a) {
        let subset: Vec<usize> = (0..a)
            .filter(|&b| mask & (1 << b) != 0)
            .map(|b| anc[b])
            .collect();
        let sign = if subset.len() % 2 == 1 { 1.0 } else { -1.0 };
        total += sign * joint_event_probability(ext, &subset, &t, m, &comp_pinned);
    }
    total.clamp(0.0, 1.0)
}

/// `Pr(⋂_{i ∈ S} e_i)` for ancestors `S` ordered shallowest-first, computed
/// within the shallowest ancestor's result subtree (Theorem 2 proof).
fn joint_event_probability(
    ext: &ProbExtension,
    subset: &[usize],
    token: &TreePattern,
    m: usize,
    comp_pinned: &TreePattern,
) -> f64 {
    let top = subset[0];
    let root = ext.results[top].ext_root;
    let beta = ext.results[top].prob;
    let den = ext.denominators()[top];
    if den <= 0.0 {
        return 0.0;
    }
    let root_label = ext.pdoc.label(root).expect("result roots are ordinary");
    // Conjunction: compensation from the top ancestor, plus an α member
    // per deeper ancestor re-testing the last token (or its visible part)
    // at that ancestor and compensating down to n.
    let mut patterns: Vec<TreePattern> = vec![comp_pinned.clone()];
    for &j in &subset[1..] {
        let orig_j = ext.results[j].orig;
        let occ = ext.occurrences_in_result(top, orig_j);
        if occ.is_empty() {
            return 0.0; // n_j not in the top subtree: impossible configuration
        }
        let s = ext.depth_in_result(top, occ[0]);
        let alpha_j = if s > m {
            // Full token, somewhere strictly below the root: lm // t[Id(nj)] ⋅ comp.
            let marked = mark_output(token, orig_j);
            let with_comp = comp(&marked, comp_pinned);
            descend_plan(root_label, &with_comp)
        } else {
            // Overlapping images: only the visible part of the lower token,
            // anchored at the subtree root: l_{m-s+1}[..]/…/lm[Qm][Id(nj)] ⋅ comp.
            let partial = token.suffix(m - s + 1);
            if partial.label(partial.root()) != root_label {
                return 0.0;
            }
            let marked = mark_output(&partial, orig_j);
            comp(&marked, comp_pinned)
        };
        patterns.push(alpha_j);
    }
    let joint = pxv_peval::dp::boolean_conjunction_probability_at(&ext.pdoc, root, &patterns);
    beta / den * joint
}

/// Joint-event probability `Pr(⋂_{i ∈ S} e_i)` exposed for the
/// why-provenance renderer ([`crate::explain`]). `subset` holds result
/// indices ordered shallowest-first.
pub fn joint_event_probability_public(
    rw: &TpRewriting,
    ext: &ProbExtension,
    n: NodeId,
    subset: &[usize],
) -> f64 {
    let t = ext.view.pattern.last_token();
    let m = t.mb_len();
    let comp_pinned = mark_output(&rw.compensation, n);
    joint_event_probability(ext, subset, &t, m, &comp_pinned)
}

/// Evaluates the whole plan: every original node retrievable from the
/// extension with its probability (sorted by node id). This is the
/// evaluation of `(qr, fr)` touching only `D^P̂_V = {P̂_v}`.
pub fn answer_tp(rw: &TpRewriting, ext: &ProbExtension) -> Vec<(NodeId, f64)> {
    ext.candidates(&rw.compensation)
        .into_iter()
        .map(|n| (n, fr_tp(rw, ext, n)))
        .filter(|&(_, p)| p > 0.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tp_rewrite::tp_rewrite;
    use crate::view::View;
    use pxv_pxml::examples_paper::fig2_pper;
    use pxv_pxml::text::parse_pdocument;
    use pxv_tpq::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    /// End-to-end helper: plan + fr against direct evaluation.
    fn check_matches_direct(pdoc: &pxv_pxml::PDocument, q: &TreePattern, view: &View) {
        let views = vec![view.clone()];
        let rs = tp_rewrite(q, &views);
        assert_eq!(rs.len(), 1, "expected a rewriting for {q}");
        let ext = ProbExtension::materialize(pdoc, view);
        let got = answer_tp(&rs[0], &ext);
        let want = pxv_peval::eval_tp(pdoc, q);
        assert_eq!(got.len(), want.len(), "answer sets differ for {q}");
        for ((n1, p1), (n2, p2)) in got.iter().zip(&want) {
            assert_eq!(n1, n2);
            assert!((p1 - p2).abs() < 1e-9, "{q} at {n1}: fr={p1} direct={p2}");
        }
    }

    #[test]
    fn example_13_restricted_fr() {
        // qBON over v2BON: fr(n5) = 0.9 ÷ 1, all other nodes 0.
        let pper = fig2_pper();
        let q = p("IT-personnel//person/bonus[laptop]");
        let view = View::new("v2BON", p("IT-personnel//person/bonus"));
        let views = vec![view.clone()];
        let rs = tp_rewrite(&q, &views);
        assert_eq!(rs.len(), 1);
        let ext = ProbExtension::materialize(&pper, &view);
        let pr = fr_tp(&rs[0], &ext, NodeId(5));
        assert!((pr - 0.9).abs() < 1e-9, "fr(n5) = {pr}");
        assert_eq!(fr_tp(&rs[0], &ext, NodeId(7)), 0.0);
        let all = answer_tp(&rs[0], &ext);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, NodeId(5));
    }

    #[test]
    fn qrbon_over_v1bon() {
        let pper = fig2_pper();
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let view = View::new("v1BON", p("IT-personnel//person[name/Rick]/bonus"));
        check_matches_direct(&pper, &q, &view);
    }

    #[test]
    fn view_with_output_predicates_divided_away() {
        // v has predicates on out(v): their probability comes packed in β
        // and must be divided away (the Theorem 1 adjustment).
        let pdoc =
            parse_pdocument("a#0[b#1[mux#2(0.6: x#3), ind#4(0.5: c#5[ind#6(0.8: d#7)])]]").unwrap();
        let q = p("a/b[x]/c[d]");
        let view = View::new("v", p("a/b[x]/c"));
        check_matches_direct(&pdoc, &q, &view);
    }

    #[test]
    fn unrestricted_unique_ancestor_cases() {
        // v = a//b, q = a//b/c: multiple b-results possible but each c has
        // a unique parent b.
        let pdoc = parse_pdocument("a#0[b#1[mux#2(0.5: c#3), b#4[ind#5(0.4: c#6)]]]").unwrap();
        let q = p("a//b/c");
        let view = View::new("v", p("a//b"));
        check_matches_direct(&pdoc, &q, &view);
    }

    #[test]
    fn unrestricted_multiple_ancestors_inclusion_exclusion() {
        // v = a//b, q = a//b//c: a c under nested b's has several selected
        // ancestors; Eq. 1 with α patterns must agree with direct eval.
        let pdoc =
            parse_pdocument("a#0[b#1[ind#2(0.7: b#3[mux#4(0.6: c#5)]), mux#6(0.3: c#7)]]").unwrap();
        let q = p("a//b//c");
        let view = View::new("v", p("a//b"));
        check_matches_direct(&pdoc, &q, &view);
    }

    #[test]
    fn example_12_shape_with_clean_token_computable() {
        // Same chain shape as Example 12 but with predicate-free token
        // prefix: v = a//b/c/b/c[e], q = v//d. u = 2, no predicates on the
        // first token node: Theorem 2 says computable.
        let pdoc = parse_pdocument(
            "a#0[b#1[c#2[b#3[c#4[ind#5(0.5: e#6), mux#7(0.4: c#8[b#9[c#10[ind#11(0.3: e#12), d#13]]])]]]]]",
        )
        .unwrap();
        let q = p("a//b/c/b/c[e]//d");
        let view = View::new("v", p("a//b/c/b/c[e]"));
        let views = vec![view.clone()];
        let rs = tp_rewrite(&q, &views);
        assert_eq!(rs.len(), 1);
        assert!(!rs[0].restricted);
        assert_eq!(rs[0].u, 2);
        let ext = ProbExtension::materialize(&pdoc, &view);
        let got = answer_tp(&rs[0], &ext);
        let want = pxv_peval::eval_tp(&pdoc, &q);
        assert_eq!(got.len(), want.len());
        for ((n1, p1), (n2, p2)) in got.iter().zip(&want) {
            assert_eq!(n1, n2);
            assert!((p1 - p2).abs() < 1e-9, "at {n1}: fr={p1} direct={p2}");
        }
    }

    #[test]
    fn missing_node_returns_zero() {
        let pper = fig2_pper();
        let q = p("IT-personnel//person/bonus[laptop]");
        let view = View::new("v2BON", p("IT-personnel//person/bonus"));
        let rs = tp_rewrite(&q, std::slice::from_ref(&view));
        let ext = ProbExtension::materialize(&pper, &view);
        assert_eq!(fr_tp(&rs[0], &ext, NodeId(4444)), 0.0);
    }
}
