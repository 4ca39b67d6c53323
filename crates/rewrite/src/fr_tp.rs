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
use crate::view::{id_label, parse_id_label, ProbExtension};
use pxv_peval::dp::{Conjunction, Lent};
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
    let mut base = TreePattern::leaf(root_label);
    let top = base.add_child(base.root(), Axis::Descendant, sub.label(sub.root()));
    base.set_output(top);
    comp(&base, sub)
}

/// `fr` of one TP-rewriting over one extension: the rewriting's compiled
/// conjunction (the compensation with a pin under its output, whose node
/// each run names) and the extension's DP kernel, lent until the `Fr` is
/// dropped. Every DP runs on the extension's forest at a result root (see
/// [`ProbExtension::forest`]), and the view-only denominator comes from
/// [`ProbExtension::denominators`]: no result subtree or pattern is
/// copied or compiled per node, and a warm single-ancestor `fr`
/// allocates only its ancestor list.
pub(crate) struct Fr<'a> {
    rw: &'a TpRewriting,
    ext: &'a ProbExtension,
    kernel: Lent<'a>,
}

impl<'a> Fr<'a> {
    pub(crate) fn new(rw: &'a TpRewriting, ext: &'a ProbExtension) -> Fr<'a> {
        Fr {
            rw,
            ext,
            kernel: ext.kernel.lend(),
        }
    }

    /// `Pr(n ∈ q_(k)(P̂^{n_i}_v))` inside the subtree of result `i`.
    pub(crate) fn numerator(&mut self, i: usize, n: NodeId) -> f64 {
        let forest = self.ext.forest();
        self.kernel
            .probability_with_pin(forest, i, &self.rw.pinned, n)
    }

    /// `fr(n)`.
    pub(crate) fn at(&mut self, n: NodeId) -> f64 {
        let ext = self.ext;
        // Ancestors of n selected by v = results whose subtree contains n,
        // shallowest first.
        let anc = ext.results_containing(n);
        if anc.is_empty() {
            return 0.0;
        }
        if anc.len() == 1 {
            // Theorem 1 (also sound & complete whenever the selected
            // ancestor is unique — footnote 3).
            let i = anc[0];
            let den = ext.denominators()[i];
            if den <= 0.0 {
                return 0.0;
            }
            return ext.results[i].prob * self.numerator(i, n) / den;
        }
        let mut total = 0.0;
        for (_, sign, value) in self.ie_terms(n, &anc) {
            total += sign * value;
        }
        total.clamp(0.0, 1.0)
    }

    /// The general case: inclusion–exclusion (Eq. 1) over the events
    ///   `e_i = [n_i ∈ v′(P) ∧ n ∈ q_(k)(P^{n_i})]`
    /// for the selected ancestors `anc` (shallowest first). One
    /// `(subset, sign, Pr(⋂_{i ∈ subset} e_i))` per non-empty subset, in
    /// bitmask order.
    pub(crate) fn ie_terms<'s>(
        &'s mut self,
        n: NodeId,
        anc: &'s [usize],
    ) -> impl Iterator<Item = (Vec<usize>, f64, f64)> + use<'a, 's> {
        let a = anc.len();
        (1u32..(1 << a)).map(move |mask| {
            let subset: Vec<usize> = (0..a)
                .filter(|&b| mask & (1 << b) != 0)
                .map(|b| anc[b])
                .collect();
            let sign = if subset.len() % 2 == 1 { 1.0 } else { -1.0 };
            let value = self.joint_event(n, &subset);
            (subset, sign, value)
        })
    }

    /// `Pr(⋂_{i ∈ S} e_i)` for ancestors `S` ordered shallowest-first,
    /// computed within the shallowest ancestor's result subtree (Theorem 2
    /// proof).
    fn joint_event(&mut self, n: NodeId, subset: &[usize]) -> f64 {
        let ext = self.ext;
        let top = subset[0];
        let den = ext.denominators()[top];
        if den <= 0.0 {
            return 0.0;
        }
        let Some(patterns) = joint_patterns(self.rw, ext, n, subset) else {
            return 0.0;
        };
        let conj = Conjunction::new(&patterns, parse_id_label);
        let joint = self.kernel.probability(ext.forest(), top, &conj);
        ext.results[top].prob / den * joint
    }
}

/// The conjunction behind `Pr(⋂_{i ∈ S} e_i)`, to be matched at the root
/// of the shallowest ancestor's result subtree: the compensation, plus an
/// α member per deeper ancestor re-testing the last token (or its visible
/// part) at that ancestor and compensating down to `n`. `Id(·)` marker
/// labels pin `n` and the deeper ancestors. `None` when the configuration
/// is impossible (the event has probability 0).
fn joint_patterns(
    rw: &TpRewriting,
    ext: &ProbExtension,
    n: NodeId,
    subset: &[usize],
) -> Option<Vec<TreePattern>> {
    let token = ext.view.pattern.last_token();
    let m = token.mb_len();
    let comp_pinned = mark_output(&rw.compensation, n);
    let top = subset[0];
    let root = ext.results[top].ext_root;
    let root_label = ext.pdoc.label(root).expect("result roots are ordinary");
    let mut patterns: Vec<TreePattern> = vec![comp_pinned.clone()];
    for &j in &subset[1..] {
        let orig_j = ext.results[j].orig;
        // n_j must occur in the top subtree.
        let occ = *ext.occurrences_in_result(top, orig_j).first()?;
        let s = ext.depth_in_result(top, occ);
        let alpha_j = if s > m {
            // Full token, somewhere strictly below the root: lm // t[Id(nj)] ⋅ comp.
            let marked = mark_output(&token, orig_j);
            let with_comp = comp(&marked, &comp_pinned);
            descend_plan(root_label, &with_comp)
        } else {
            // Overlapping images: only the visible part of the lower
            // token, anchored at the subtree root:
            // l_{m-s+1}[..]/…/lm[Qm][Id(nj)] ⋅ comp.
            let partial = token.suffix(m - s + 1);
            if partial.label(partial.root()) != root_label {
                return None;
            }
            let marked = mark_output(&partial, orig_j);
            comp(&marked, &comp_pinned)
        };
        patterns.push(alpha_j);
    }
    Some(patterns)
}

/// `fr(n)` for an accepted TP-rewriting: `Pr(n ∈ q(P))` computed from the
/// view extension alone. The same work per node as [`answer_tp`] does for
/// each of its candidates: the rewriting is compiled when it is made, and
/// the kernel is the extension's.
pub fn fr_tp(rw: &TpRewriting, ext: &ProbExtension, n: NodeId) -> f64 {
    Fr::new(rw, ext).at(n)
}

/// Evaluates the whole plan: every original node retrievable from the
/// extension with its probability (sorted by node id). This is the
/// evaluation of `(qr, fr)` touching only `D^P̂_V = {P̂_v}`.
pub fn answer_tp(rw: &TpRewriting, ext: &ProbExtension) -> Vec<(NodeId, f64)> {
    let mut fr = Fr::new(rw, ext);
    ext.candidates(&rw.compensation)
        .into_iter()
        .map(|n| (n, fr.at(n)))
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

    /// Pins on the forest (no `Id(·)` slots) give the bits of matching
    /// the markers themselves, on a layout that keeps every marker slot:
    /// the numerator of Theorem 1 and every joint event of Eq. 1.
    #[test]
    fn virtual_markers_are_bit_identical_to_marker_slots() {
        use pxv_peval::dp::Kernel;
        use pxv_pxml::forest::Forest;
        let nested =
            parse_pdocument("a#0[b#1[ind#2(0.7: b#3[mux#4(0.6: c#5)]), mux#6(0.3: c#7)]]").unwrap();
        let (personnel, _) = pxv_pxml::generators::personnel(12, 3, 5);
        let cases = [
            (nested, "a//b", "a//b//c"),
            (
                personnel.clone(),
                "IT-personnel//person/bonus",
                "IT-personnel//person/bonus[laptop]",
            ),
            (
                personnel,
                "IT-personnel//person[name/Rick]/bonus",
                "IT-personnel//person[name/Rick]/bonus[pda]",
            ),
        ];
        let mut compared = 0;
        for (pdoc, v, q) in cases {
            let view = View::new("v", p(v));
            let rw = tp_rewrite(&p(q), std::slice::from_ref(&view)).remove(0);
            let ext = ProbExtension::materialize(&pdoc, &view);
            let mut markers = Forest::default();
            for r in &ext.results {
                markers.push_pdocument(&ext.pdoc, r.ext_root, Some);
            }
            let mut kernel = Kernel::default();
            let mut check = |t: usize, patterns: &[TreePattern]| {
                let pinned = Conjunction::new(patterns, parse_id_label);
                let literal = Conjunction::new(patterns, |_| None);
                assert_eq!(
                    kernel.probability(ext.forest(), t, &pinned).to_bits(),
                    kernel.probability(&markers, t, &literal).to_bits(),
                    "{patterns:?}"
                );
                compared += 1;
            };
            for n in ext.candidates(&rw.compensation) {
                let anc = ext.results_containing(n);
                check(anc[0], &[mark_output(&rw.compensation, n)]);
                let named = Conjunction::new(&[mark_output(&rw.compensation, n)], parse_id_label);
                let mut k = Kernel::default();
                assert_eq!(
                    k.probability_with_pin(ext.forest(), anc[0], &rw.pinned, n)
                        .to_bits(),
                    k.probability(ext.forest(), anc[0], &named).to_bits()
                );
                for mask in 1u32..(1 << anc.len()) {
                    let subset: Vec<usize> = (0..anc.len())
                        .filter(|&b| mask & (1 << b) != 0)
                        .map(|b| anc[b])
                        .collect();
                    if let Some(patterns) = joint_patterns(&rw, &ext, n, &subset) {
                        check(subset[0], &patterns);
                    }
                }
            }
        }
        assert!(compared > 30, "{compared}");
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
