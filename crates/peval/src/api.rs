//! High-level evaluation API used by the rewriting engine and examples.

use crate::dp::{Conjunction, Kernel};
use pxv_pxml::{Forest, NodeId, PDocument};
use pxv_tpq::TreePattern;

/// `q(P̂)`: all node/probability pairs with positive probability, sorted by
/// node id (the probabilistic query semantics of §2, "Querying
/// p-documents").
///
/// The document is laid into columns once. Candidates are found on its
/// maximal world (TP is monotone), then each candidate's probability is
/// one kernel run with the pattern pinned at it.
pub fn eval_tp(pdoc: &PDocument, q: &TreePattern) -> Vec<(NodeId, f64)> {
    let mut span = pxv_obs::Span::enter("eval_tp");
    let forest = Forest::of_pdocument(pdoc, pdoc.root());
    let candidates = candidates_in(&forest, q);
    span.record("candidates", candidates.len() as u64);
    let mut kernel = Kernel::default();
    let mut out = Vec::with_capacity(candidates.len());
    for n in candidates {
        let p = kernel.probability(&forest, 0, &Conjunction::pinned(&[(q, n)]));
        if p > 0.0 {
            out.push((n, p));
        }
    }
    span.record("answers", out.len() as u64);
    out
}

/// The nodes `q` selects in the maximal world of `pdoc`, sorted: every
/// node with a positive answer probability, and possibly more. Embeds on
/// the document's columns; no world document is built.
pub fn candidates(pdoc: &PDocument, q: &TreePattern) -> Vec<NodeId> {
    candidates_in(&Forest::of_pdocument(pdoc, pdoc.root()), q)
}

fn candidates_in(forest: &Forest, q: &TreePattern) -> Vec<NodeId> {
    let mut out = Vec::new();
    pxv_tpq::embed::Embedder::new(q).eval(forest, 0, |n| out.push(n));
    out.sort_unstable();
    out
}

/// `Pr(⋀_i n_i ∈ q_i(P))` for `(pattern, target)` pairs: one kernel run
/// over the document's columns with each pattern pinned at its target.
/// Only ordinary nodes are ever selected, so any other target gives 0.
fn pinned_probability(pdoc: &PDocument, specs: &[(&TreePattern, NodeId)]) -> f64 {
    if specs
        .iter()
        .any(|&(_, n)| !pdoc.contains(n) || pdoc.label(n).is_none())
    {
        return 0.0;
    }
    let forest = Forest::of_pdocument(pdoc, pdoc.root());
    Kernel::default().probability(&forest, 0, &Conjunction::pinned(specs))
}

/// `Pr(n ∈ q(P))` for one target node.
pub fn eval_tp_at(pdoc: &PDocument, q: &TreePattern, n: NodeId) -> f64 {
    pinned_probability(pdoc, &[(q, n)])
}

/// The *scope* of a candidate under an anchor: the sub-p-document induced
/// by the root path of `anchor` plus the whole subtree below it, with
/// everything else marginalized out. Node ids, child order, kinds and
/// edge probabilities inside the scope are preserved verbatim; above the
/// anchor each node keeps only its root-path child (for `mux`/`ind` the
/// dropped siblings' mass flows where the generative semantics already
/// sends it; an `exp` node's subset distribution collapses to the kept
/// child's marginal, accumulated in the distribution's original order so
/// the construction is deterministic).
///
/// Pruning is an exact marginalization for any event that only depends on
/// nodes inside the scope: distinct subtrees of a p-document draw their
/// choices independently (§2), so removing subtrees no embedding can
/// touch leaves the event's probability unchanged. This is what
/// [`eval_tp_at_anchored`] relies on — and because the pruned document is
/// a *deterministic function* of the scope's contents, two documents that
/// agree on a candidate's scope yield **bit-identical** probabilities,
/// the property the rewrite layer's incremental view maintenance is built
/// on.
pub fn prune_to_anchor(pdoc: &PDocument, anchor: NodeId) -> PDocument {
    if anchor == pdoc.root() {
        return pdoc.clone();
    }
    let path = pdoc.root_path(anchor);
    let root = path[0];
    let mut out = PDocument::with_root_id(pdoc.label(root).expect("ordinary root"), root);
    for w in path.windows(2) {
        let (a, b) = (w[0], w[1]);
        let prob = pdoc.child_prob(a, b);
        match pdoc.kind(b) {
            pxv_pxml::PKind::Ordinary(l) => out.add_ordinary_with_id(a, *l, prob, b),
            k => out.add_dist_with_id(a, k.clone(), prob, b),
        }
        // A pruned `exp` node keeps one child: collapse its subset
        // distribution to that child's marginal, summing in the original
        // entry order (any fixed order works; it just must be a function
        // of the distribution alone).
        if let pxv_pxml::PKind::Exp(dist) = pdoc.kind(a) {
            let idx = pdoc
                .children(a)
                .iter()
                .position(|&c| c == b)
                .expect("path child");
            let mut kept = 0.0;
            let mut dropped = 0.0;
            for &(mask, p) in dist {
                if mask & (1 << idx) != 0 {
                    kept += p;
                } else {
                    dropped += p;
                }
            }
            out.set_exp_distribution(a, vec![(0b1, kept), (0b0, dropped)]);
        }
    }
    // Below the anchor: the subtree verbatim (ids, kinds, probabilities,
    // full exp distributions).
    let mut stack = vec![anchor];
    while let Some(m) = stack.pop() {
        for &c in pdoc.children(m) {
            let prob = pdoc.child_prob(m, c);
            match pdoc.kind(c) {
                pxv_pxml::PKind::Ordinary(l) => out.add_ordinary_with_id(m, *l, prob, c),
                k => out.add_dist_with_id(m, k.clone(), prob, c),
            }
            stack.push(c);
        }
    }
    out
}

/// `Pr(n ∈ q(P))` computed over the pruned scope of `anchor` (an ordinary
/// ancestor-or-self of `n`) instead of the whole document — see
/// [`prune_to_anchor`] for when this is exact. The caller must pick an
/// anchor whose scope contains every possible witness of `n`'s matches;
/// `TreePattern::first_predicate_depth` in `pxv-tpq` gives the deepest
/// generally-safe choice.
pub fn eval_tp_at_anchored(pdoc: &PDocument, q: &TreePattern, n: NodeId, anchor: NodeId) -> f64 {
    debug_assert!(
        pdoc.is_ancestor_or_self(anchor, n),
        "anchor {anchor} must be an ancestor of candidate {n}"
    );
    let pruned = prune_to_anchor(pdoc, anchor);
    eval_tp_at(&pruned, q, n)
}

/// `Pr(n ∈ (q1 ∩ … ∩ qm)(P))`: all parts select `n` simultaneously.
pub fn eval_intersection_at(pdoc: &PDocument, parts: &[TreePattern], n: NodeId) -> f64 {
    if parts.is_empty() || !pdoc.contains(n) {
        return if pdoc.contains(n) {
            pdoc.appearance_probability(n)
        } else {
            0.0
        };
    }
    let specs: Vec<(&TreePattern, NodeId)> = parts.iter().map(|q| (q, n)).collect();
    pinned_probability(pdoc, &specs)
}

/// Joint probability of several (pattern, target) pairs holding at once:
/// `Pr(⋀_i  n_i ∈ q_i(P))`. Each pattern is pinned at its own target.
pub fn joint_probability(pdoc: &PDocument, specs: &[(&TreePattern, NodeId)]) -> f64 {
    if specs.is_empty() {
        return 1.0;
    }
    pinned_probability(pdoc, specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_pxml::examples_paper::{fig2_pper, fig5_p1, fig5_p2, fig5_p3, fig5_p4};
    use pxv_pxml::examples_paper::{fig5_chain_nodes, fig5_p1_b, fig5_p2_b};
    use pxv_tpq::parse::parse_pattern;

    fn q(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    #[test]
    fn example_6_via_dp() {
        let pper = fig2_pper();
        let n5 = NodeId(5);
        let n7 = NodeId(7);
        assert!(
            (eval_tp_at(&pper, &q("IT-personnel//person/bonus[laptop]"), n5) - 0.9).abs() < 1e-9
        );
        assert!(
            (eval_tp_at(&pper, &q("IT-personnel//person[name/Rick]/bonus"), n5) - 0.75).abs()
                < 1e-9
        );
        assert!(
            (eval_tp_at(
                &pper,
                &q("IT-personnel//person[name/Rick]/bonus[laptop]"),
                n5
            ) - 0.675)
                .abs()
                < 1e-9
        );
        let v2 = q("IT-personnel//person/bonus");
        let ans = eval_tp(&pper, &v2);
        assert_eq!(ans, vec![(n5, 1.0), (n7, 1.0)]);
    }

    #[test]
    fn example_11_probabilities() {
        // q = a/b[c]: 0.325 on P1, 0.5 on P2.
        let query = q("a/b[c]");
        assert!((eval_tp_at(&fig5_p1(), &query, fig5_p1_b()) - 0.325).abs() < 1e-9);
        assert!((eval_tp_at(&fig5_p2(), &query, fig5_p2_b()) - 0.5).abs() < 1e-9);
        // v = a[.//c]/b: 0.65 on both.
        let view = q("a[.//c]/b");
        assert!((eval_tp_at(&fig5_p1(), &view, fig5_p1_b()) - 0.65).abs() < 1e-9);
        assert!((eval_tp_at(&fig5_p2(), &view, fig5_p2_b()) - 0.65).abs() < 1e-9);
    }

    #[test]
    fn example_12_probabilities() {
        let (nc1, nc2, nd) = fig5_chain_nodes();
        let query = q("a//b[e]/c/b/c//d");
        let view = q("a//b[e]/c/b/c");
        assert!((eval_tp_at(&fig5_p3(), &query, nd) - 0.288).abs() < 1e-9);
        assert!((eval_tp_at(&fig5_p4(), &query, nd) - 0.264).abs() < 1e-9);
        // v selects nc1 with 0.12 and nc2 with 0.24 in both documents.
        for pdoc in [fig5_p3(), fig5_p4()] {
            assert!((eval_tp_at(&pdoc, &view, nc1) - 0.12).abs() < 1e-9);
            assert!((eval_tp_at(&pdoc, &view, nc2) - 0.24).abs() < 1e-9);
        }
    }

    #[test]
    fn dp_agrees_with_exact_on_examples() {
        let pper = fig2_pper();
        for pat in [
            "IT-personnel//person/bonus[laptop]",
            "IT-personnel//person[name/Rick]/bonus[laptop]",
            "IT-personnel//person/bonus/pda",
            "IT-personnel//person/bonus[pda/50]",
            "IT-personnel//bonus//44",
        ] {
            let query = q(pat);
            let dp_ans = eval_tp(&pper, &query);
            let exact = crate::exact::eval_tp_exact(&pper, &query);
            assert_eq!(dp_ans.len(), exact.len(), "{pat}");
            for ((n1, p1), (n2, p2)) in dp_ans.iter().zip(&exact) {
                assert_eq!(n1, n2, "{pat}");
                assert!((p1 - p2).abs() < 1e-9, "{pat}: {p1} vs {p2}");
            }
        }
    }

    #[test]
    fn intersection_at_node() {
        let pper = fig2_pper();
        let parts = vec![
            q("IT-personnel//person[name/Rick]/bonus"),
            q("IT-personnel//person/bonus[laptop]"),
        ];
        // Conjunction at n5 = qRBON's probability.
        let pr = eval_intersection_at(&pper, &parts, NodeId(5));
        assert!((pr - 0.675).abs() < 1e-9);
        let exact = crate::exact::eval_intersection_at_exact(&pper, &parts, NodeId(5));
        assert!((pr - exact).abs() < 1e-9);
    }

    #[test]
    fn joint_probability_different_targets() {
        let p3 = fig5_p3();
        let (nc1, nc2, _) = fig5_chain_nodes();
        let view = q("a//b[e]/c/b/c");
        // Joint: view selects both nc1 and nc2 = E1 ∧ E2 ∧ chain = .3*.6*.4.
        let joint = joint_probability(&p3, &[(&view, nc1), (&view, nc2)]);
        assert!((joint - 0.072).abs() < 1e-9, "joint = {joint}");
    }

    /// The pruned scope is an exact marginalization: evaluating a
    /// candidate under any valid anchor agrees with the full-document DP.
    #[test]
    fn anchored_evaluation_agrees_with_full_dp() {
        let pper = fig2_pper();
        let n5 = NodeId(5);
        // qBON's witnesses (the bonus predicate, pin included) live under
        // n5 itself, so every ancestor works as an anchor.
        let query = q("IT-personnel//person/bonus[laptop]");
        let full = eval_tp_at(&pper, &query, n5);
        for anchor in pper.root_path(n5) {
            if pper.label(anchor).is_none() {
                continue; // anchors are ordinary nodes
            }
            let anchored = eval_tp_at_anchored(&pper, &query, n5, anchor);
            assert!(
                (anchored - full).abs() < 1e-12,
                "anchor {anchor}: {anchored} vs {full}"
            );
        }
        // Predicate above the output: anchor at the person level.
        let rick = q("IT-personnel//person[name/Rick]/bonus");
        let person = pper.ordinary_ancestor(n5).unwrap();
        let full = eval_tp_at(&pper, &rick, n5);
        let anchored = eval_tp_at_anchored(&pper, &rick, n5, person);
        assert!((anchored - full).abs() < 1e-12, "{anchored} vs {full}");
    }

    /// Pruning through every distributional kind (mux chain mass, ind,
    /// det, exp marginal collapse) preserves candidate probabilities.
    #[test]
    fn prune_marginalizes_every_kind() {
        let p = pxv_pxml::text::parse_pdocument(
            "r#0[mux#1(0.4: a#2[b#3], 0.3: z#4), ind#5(0.7: c#6[d#7]), det#8(e#9[f#10])]",
        )
        .unwrap();
        for (pat, n, anchor) in [
            ("r//b", NodeId(3), NodeId(2)),
            ("r/a/b", NodeId(3), NodeId(2)),
            ("r//d", NodeId(7), NodeId(6)),
            ("r//f", NodeId(10), NodeId(9)),
        ] {
            let query = q(pat);
            let full = eval_tp_at(&p, &query, n);
            let anchored = eval_tp_at_anchored(&p, &query, n, anchor);
            assert!(
                (anchored - full).abs() < 1e-12,
                "{pat} at {n}: {anchored} vs {full}"
            );
            let pruned = prune_to_anchor(&p, anchor);
            assert!(pruned.validate().is_ok(), "{pat}: pruned doc validates");
            assert!(pruned.len() < p.len(), "{pat}: pruning actually prunes");
        }
        // Exp on the root path: the kept child's marginal must survive
        // the collapse.
        let mut e = PDocument::new(pxv_pxml::Label::new("r"));
        let exp = e.add_dist(e.root(), pxv_pxml::PKind::Exp(Vec::new()), 1.0);
        let a = e.add_ordinary(exp, pxv_pxml::Label::new("a"), 1.0);
        let _b = e.add_ordinary(exp, pxv_pxml::Label::new("b"), 1.0);
        let c = e.add_ordinary(a, pxv_pxml::Label::new("c"), 1.0);
        e.set_exp_distribution(exp, vec![(0b11, 0.5), (0b01, 0.25), (0b10, 0.25)]);
        let query = q("r/a/c");
        let full = eval_tp_at(&e, &query, c);
        let anchored = eval_tp_at_anchored(&e, &query, c, a);
        assert!((full - 0.75).abs() < 1e-12);
        assert!((anchored - full).abs() < 1e-12);
    }

    /// Bit-identity contract: two documents that agree on a candidate's
    /// scope produce bit-identical anchored probabilities, however much
    /// they differ outside it.
    #[test]
    fn anchored_evaluation_is_bitwise_scope_local() {
        let before =
            pxv_pxml::text::parse_pdocument("r#0[mux#1(0.4: a#2[b#3]), ind#4(0.7: x#5[y#6])]")
                .unwrap();
        // Same scope for candidate b#3 (root path + subtree of a#2);
        // wildly different sibling content.
        let after = pxv_pxml::text::parse_pdocument(
            "r#0[mux#1(0.4: a#2[b#3]), ind#4(0.25: x#5[mux#7(0.125: w#8)])]",
        )
        .unwrap();
        let query = q("r/a[b]/b");
        let p1 = eval_tp_at_anchored(&before, &query, NodeId(3), NodeId(2));
        let p2 = eval_tp_at_anchored(&after, &query, NodeId(3), NodeId(2));
        assert_eq!(p1.to_bits(), p2.to_bits(), "bit-identical, not approximate");
    }

    #[test]
    fn empty_parts_and_missing_nodes() {
        let pper = fig2_pper();
        assert_eq!(
            eval_tp_at(&pper, &q("IT-personnel/person"), NodeId(999)),
            0.0
        );
        let pr = eval_intersection_at(&pper, &[], NodeId(8));
        assert!((pr - 0.75).abs() < 1e-12); // appearance probability of Rick
    }
}
