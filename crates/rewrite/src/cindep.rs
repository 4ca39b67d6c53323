//! Probabilistic condition-independence of queries (`⊥`, §4.1).
//!
//! `q1 ⊥ q2` iff for every p-document and node `n`,
//! `Pr(n ∈ (q1∩q2)(P)) = Pr(n ∈ q1(P)) · Pr(n ∈ q2(P)) ÷ Pr(n ∈ P)` —
//! i.e. conditioned on `n` appearing, the two selection events are
//! independent. The paper proves (Prop. 2) that a *syntactic* test decides
//! this in PTime; the full definition lives in the unavailable extended
//! version, so this module implements the test derived in DESIGN.md §4.3:
//!
//! 1. enumerate the *alignments* of the two main branches — all satisfiable
//!    merges onto a common root-to-answer path (outputs coalesce);
//! 2. a dependence exists iff, in some alignment, predicates of the two
//!    queries can share probabilistic choices: either both queries place
//!    predicates on the **same** merged node, or the *upper* query's
//!    predicate can **reach into the subtree** of the lower query's anchor
//!    (decided by a small label-constrained embedding DP along the merged
//!    segment, where `//`-edges may tunnel through concrete path nodes).
//!
//! Conditioning on `n ∈ P` fixes every distributional choice on the
//! root-to-`n` path, and distinct off-path subtrees have disjoint
//! distributional nodes, so predicate events can only correlate through
//! region overlap or a shared anchor — the two cases above (soundness is
//! validated against exhaustive world enumeration in the property tests).

use pxv_pxml::{Label, PDocument};
use pxv_tpq::pattern::{Axis, QNodeId, TreePattern};
use std::collections::HashSet;

/// One node of a merged main branch.
#[derive(Clone, Debug)]
pub struct AlignPos {
    /// Edge into this position (`Child` ⇒ adjacent to the previous one).
    pub axis: Axis,
    /// Label of the merged node.
    pub label: Label,
    /// Main-branch index of `q1`'s node here, if any.
    pub a: Option<usize>,
    /// Main-branch index of `q2`'s node here, if any.
    pub b: Option<usize>,
}

/// All alignments of `q1` and `q2` (merges of their main branches with
/// coalesced roots and outputs). `None` if more than `cap` alignments.
fn alignments(q1: &TreePattern, q2: &TreePattern, cap: usize) -> Option<Vec<Vec<AlignPos>>> {
    let mb1 = q1.main_branch();
    let mb2 = q2.main_branch();
    if q1.label(mb1[0]) != q2.label(mb2[0]) {
        return Some(Vec::new());
    }
    let mut out: Vec<Vec<AlignPos>> = Vec::new();
    let mut cur: Vec<AlignPos> = vec![AlignPos {
        axis: Axis::Child,
        label: q1.label(mb1[0]),
        a: Some(0),
        b: Some(0),
    }];
    #[allow(clippy::too_many_arguments)]
    fn rec(
        q1: &TreePattern,
        q2: &TreePattern,
        mb1: &[QNodeId],
        mb2: &[QNodeId],
        ia: usize,
        ib: usize,
        la: usize,
        lb: usize,
        cur: &mut Vec<AlignPos>,
        out: &mut Vec<Vec<AlignPos>>,
        cap: usize,
    ) -> bool {
        let pos = cur.len();
        let a_pending = ia < mb1.len();
        let b_pending = ib < mb2.len();
        if !a_pending && !b_pending {
            if la == pos - 1 && lb == pos - 1 {
                if out.len() >= cap {
                    return false;
                }
                out.push(cur.clone());
            }
            return true;
        }
        // Outputs must coalesce: if one query is exhausted, dead branch.
        if a_pending != b_pending {
            return true;
        }
        let a_axis = q1.axis(mb1[ia]);
        let b_axis = q2.axis(mb2[ib]);
        let a_label = q1.label(mb1[ia]);
        let b_label = q2.label(mb2[ib]);
        let a_forced = a_axis == Axis::Child && la == pos - 1;
        let b_forced = b_axis == Axis::Child && lb == pos - 1;
        // A '/'-node not advancing now can never advance: its slot is pos.
        // (last positions never exceed pos-1, so forced ⇒ advance-or-die.)
        let choices: &[(bool, bool)] = &[(true, true), (true, false), (false, true)];
        for &(adv_a, adv_b) in choices {
            if (a_forced && !adv_a) || (b_forced && !adv_b) {
                continue;
            }
            if adv_a && a_axis == Axis::Child && la != pos - 1 {
                continue;
            }
            if adv_b && b_axis == Axis::Child && lb != pos - 1 {
                continue;
            }
            if adv_a && adv_b && a_label != b_label {
                continue;
            }
            let axis = if (adv_a && a_axis == Axis::Child) || (adv_b && b_axis == Axis::Child) {
                Axis::Child
            } else {
                Axis::Descendant
            };
            let label = if adv_a { a_label } else { b_label };
            cur.push(AlignPos {
                axis,
                label,
                a: if adv_a { Some(ia) } else { None },
                b: if adv_b { Some(ib) } else { None },
            });
            let cont = rec(
                q1,
                q2,
                mb1,
                mb2,
                ia + usize::from(adv_a),
                ib + usize::from(adv_b),
                if adv_a { pos } else { la },
                if adv_b { pos } else { lb },
                cur,
                out,
                cap,
            );
            cur.pop();
            if !cont {
                return false;
            }
        }
        true
    }
    if !rec(q1, q2, &mb1, &mb2, 1, 1, 0, 0, &mut cur, &mut out, cap) {
        return None;
    }
    Some(out)
}

/// Can some predicate node of `q` (anchored at alignment position `i`)
/// place a witness inside the subtree of the merged node at position `j`
/// (`i < j`)? Decided by a reachability DP over locations along the merged
/// segment: concrete path nodes constrain labels, `//`-gaps and `//`-edges
/// absorb anything; entering any location strictly below position `j` — or
/// landing *on* `j` with children remaining — counts as reaching.
fn predicate_reaches(
    q: &TreePattern,
    anchor: QNodeId,
    align: &[AlignPos],
    i: usize,
    j: usize,
) -> bool {
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Loc {
        /// On the merged path at this position (`i < t ≤ j`).
        Path(usize),
        /// Inside the flexible gap between positions `t` and `t+1`.
        Gap(usize),
        /// Strictly inside the subtree of position `j`: success.
        Inside,
    }
    // A gap before position t+1 exists iff the edge into t+1 is Descendant.
    let gap_exists = |t: usize| t < j && align[t + 1].axis == Axis::Descendant;
    // Locations a node may take given its parent's location and its axis.
    let targets = |parent: Loc, axis: Axis, label: Label| -> Vec<Loc> {
        let mut ts = Vec::new();
        let base = match parent {
            Loc::Path(t) => t,
            Loc::Gap(t) => t,
            Loc::Inside => return vec![Loc::Inside],
        };
        match axis {
            Axis::Child => {
                match parent {
                    Loc::Path(t) => {
                        if t == j {
                            return vec![Loc::Inside];
                        }
                        if align[t + 1].axis == Axis::Child {
                            if label == align[t + 1].label {
                                ts.push(Loc::Path(t + 1));
                            }
                        } else {
                            // '//' edge: realized with gap 0 (direct child)
                            // or with gap nodes.
                            if label == align[t + 1].label {
                                ts.push(Loc::Path(t + 1));
                            }
                            ts.push(Loc::Gap(t));
                        }
                    }
                    Loc::Gap(t) => {
                        ts.push(Loc::Gap(t)); // next gap node
                        if label == align[t + 1].label {
                            ts.push(Loc::Path(t + 1));
                        }
                    }
                    Loc::Inside => unreachable!(),
                }
            }
            Axis::Descendant => {
                // Anywhere strictly below the parent's region.
                for (t, step) in align.iter().enumerate().take(j + 1).skip(base + 1) {
                    if label == step.label {
                        ts.push(Loc::Path(t));
                    }
                }
                for t in base..j {
                    if gap_exists(t) {
                        ts.push(Loc::Gap(t));
                    }
                }
                ts.push(Loc::Inside);
            }
        }
        // Reaching Path(j) counts as Inside only with children; the caller
        // handles that by expanding from Path(j).
        ts
    };

    // BFS over (query predicate node, location).
    let mut seen: HashSet<(u32, Loc)> = HashSet::new();
    let mut queue: Vec<(QNodeId, Loc)> = Vec::new();
    // Anchor's predicate children start from the anchor position i.
    let preds: Vec<QNodeId> = q.predicate_children(anchor);
    for c in preds {
        for loc in targets(Loc::Path(i), q.axis(c), q.label(c)) {
            if seen.insert((c.0, loc)) {
                queue.push((c, loc));
            }
        }
    }
    while let Some((x, loc)) = queue.pop() {
        match loc {
            Loc::Inside => return true,
            Loc::Path(t)
                if t == j
                // On the lower anchor itself: its children (if any) land
                // strictly inside.
                && !q.children(x).is_empty() =>
            {
                return true;
            }
            _ => {}
        }
        for &c in q.children(x) {
            for nl in targets(loc, q.axis(c), q.label(c)) {
                if seen.insert((c.0, nl)) {
                    queue.push((c, nl));
                }
            }
        }
    }
    false
}

/// Cap on alignment enumeration; exceeding it returns "dependent"
/// (conservative, sound for every use in the rewriting algorithms).
const ALIGNMENT_CAP: usize = 20_000;

/// The syntactic c-independence test (Prop. 2). Sound: `true` implies the
/// probabilistic identity holds for every p-document (validated against
/// exhaustive enumeration in tests); conservative `false` on alignment
/// blowup.
pub fn c_independent(q1: &TreePattern, q2: &TreePattern) -> bool {
    let Some(aligns) = alignments(q1, q2, ALIGNMENT_CAP) else {
        return false;
    };
    for al in &aligns {
        let mb1 = q1.main_branch();
        let mb2 = q2.main_branch();
        // Positions where each query has predicates.
        let preds_a: Vec<(usize, QNodeId)> = al
            .iter()
            .enumerate()
            .filter_map(|(p, ap)| ap.a.map(|i| (p, mb1[i])))
            .filter(|&(_, n)| q1.has_predicates(n))
            .collect();
        let preds_b: Vec<(usize, QNodeId)> = al
            .iter()
            .enumerate()
            .filter_map(|(p, ap)| ap.b.map(|i| (p, mb2[i])))
            .filter(|&(_, n)| q2.has_predicates(n))
            .collect();
        for &(pa, na) in &preds_a {
            for &(pb, nb) in &preds_b {
                let conflict = if pa == pb {
                    true
                } else if pa < pb {
                    predicate_reaches(q1, na, al, pa, pb)
                } else {
                    predicate_reaches(q2, nb, al, pb, pa)
                };
                if conflict {
                    return false;
                }
            }
        }
    }
    true
}

/// Numerically checks the c-independence identity on one p-document, for
/// every ordinary node (test/validation helper; exponential — enumeration).
pub fn identity_holds_on(pdoc: &PDocument, q1: &TreePattern, q2: &TreePattern, tol: f64) -> bool {
    for n in pdoc.ordinary_ids() {
        let pn = pdoc.appearance_probability(n);
        if pn <= 0.0 {
            continue;
        }
        let p1 = pxv_peval::eval_tp_at(pdoc, q1, n);
        let p2 = pxv_peval::eval_tp_at(pdoc, q2, n);
        let joint = pxv_peval::eval_intersection_at(pdoc, &[q1.clone(), q2.clone()], n);
        if (joint - p1 * p2 / pn).abs() > tol {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_tpq::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    #[test]
    fn paper_example_pairs() {
        // qBON ⊥ v1BON (§4.1).
        let qbon = p("IT-personnel//person/bonus[laptop]");
        let v1 = p("IT-personnel//person[name/Rick]/bonus");
        assert!(c_independent(&qbon, &v1));
        // a[b] ̸⊥ a[c] (§4.1).
        assert!(!c_independent(&p("a[b]"), &p("a[c]")));
        // Example 11: v′ = a[.//c]/b ̸⊥ q″ = a/b[c].
        assert!(!c_independent(&p("a[.//c]/b"), &p("a/b[c]")));
    }

    #[test]
    fn predicate_free_queries_are_independent() {
        assert!(c_independent(&p("a//b/c"), &p("a/b[x]/c")));
        assert!(c_independent(&p("a"), &p("a[b][c]")));
    }

    #[test]
    fn same_predicate_is_dependent() {
        // Pr(A ∧ A) = Pr(A) ≠ Pr(A)² in general.
        assert!(!c_independent(&p("a[b]"), &p("a[b]")));
    }

    #[test]
    fn example_16_pairs() {
        let v1 = p("a[1]/b/c[3]/d");
        let v2 = p("a/b[2]/c[3]/d");
        let v3 = p("a[1]/b[2]/c/d");
        let v4 = p("a//d");
        assert!(!c_independent(&v1, &v2)); // share [3] anchor
        assert!(!c_independent(&v1, &v3)); // share [1] anchor
        assert!(!c_independent(&v2, &v3)); // share [2] anchor
        assert!(c_independent(&v1, &v4));
        assert!(c_independent(&v2, &v4));
        assert!(c_independent(&v3, &v4));
    }

    #[test]
    fn example_15_views_are_independent() {
        // v1BON ⊥ (the unfolding of) v = IT-personnel//person/bonus[laptop].
        let v1 = p("IT-personnel//person[name/Rick]/bonus");
        let v = p("IT-personnel//person/bonus[laptop]");
        assert!(c_independent(&v1, &v));
    }

    #[test]
    fn descendant_predicate_tunnels_through_path() {
        // [.//x] from the root can reach below any deeper anchor.
        assert!(!c_independent(&p("a[.//x]/b"), &p("a/b[y]")));
        // But a /-leaf with a non-matching label cannot.
        assert!(c_independent(&p("a[x]/b"), &p("a/b[y]")));
    }

    #[test]
    fn deep_child_predicate_reaches_through_matching_labels() {
        // [b/x] from a can map its b onto the path's b and place x under it.
        assert!(!c_independent(&p("a[b/x]/b"), &p("a/b[y]")));
        // [c/x] cannot (label c ≠ path label b).
        assert!(c_independent(&p("a[c/x]/b"), &p("a/b[y]")));
    }

    #[test]
    fn gap_positions_allow_reach() {
        // a[x/y]//b: predicate x/y can live in the //-gap above b... but
        // overlap needs entering subtree(b): x at gap, y could be at b?
        // y label ≠ b: still blocked; with label b it reaches.
        assert!(!c_independent(&p("a[x/b/w]//b"), &p("a//b[z]")));
        assert!(c_independent(&p("a[x]/m/b"), &p("a/m/b[z]")));
    }

    #[test]
    fn disjoint_root_labels_vacuously_independent() {
        assert!(c_independent(&p("a[x]/b"), &p("r[y]/b")));
        assert_eq!(alignments(&p("a/b"), &p("r/b"), 10).unwrap().len(), 0);
    }

    #[test]
    fn alignment_counts() {
        // Identical /-chains: single alignment.
        let als = alignments(&p("a/b/c"), &p("a/b/c"), 100).unwrap();
        assert_eq!(als.len(), 1);
        assert!(als[0].iter().all(|ap| ap.a.is_some() && ap.b.is_some()));
        // a//c vs a/b/c: c's coalesce; one alignment (b absorbs the gap).
        let als2 = alignments(&p("a//c"), &p("a/b/c"), 100).unwrap();
        assert_eq!(als2.len(), 1);
        // a//b//c vs a//d//c: b,d cannot coalesce: 2 orderings.
        let als3 = alignments(&p("a//b//c"), &p("a//d//c"), 100).unwrap();
        assert_eq!(als3.len(), 2);
    }

    #[test]
    fn unsatisfiable_views_vacuously_independent() {
        // a/b and a/x/b cannot select the same node.
        assert!(c_independent(&p("a[p]/b"), &p("a/x[q]/b")));
    }

    #[test]
    fn theorem_4_gadget_independence() {
        // Views from disjoint hyperedges are c-independent; overlapping
        // ones are not.
        let v1 = p("a[p1]/a/a//b"); // edge {1}
        let v2 = p("a/a[p2]/a//b"); // edge {2}
        let v12 = p("a[p1]/a[p2]/a//b"); // edge {1,2}
        assert!(c_independent(&v1, &v2));
        assert!(!c_independent(&v1, &v12));
        assert!(!c_independent(&v2, &v12));
    }

    #[test]
    fn numeric_identity_on_example_documents() {
        use pxv_pxml::text::parse_pdocument;
        // Independent pair: identity holds everywhere.
        let pdoc = parse_pdocument("a[mux(0.5: b[ind(0.3: x, 0.6: y)]), ind(0.7: c)]").unwrap();
        let q1 = p("a/b[x]");
        let q2 = p("a[c]/b");
        assert!(c_independent(&q1, &q2));
        assert!(identity_holds_on(&pdoc, &q1, &q2, 1e-9));
        // Dependent pair: find a witness document where identity fails.
        let q3 = p("a/b[x]");
        let q4 = p("a/b[y]");
        assert!(!c_independent(&q3, &q4));
        let witness = parse_pdocument("a[b[mux(0.5: x, 0.5: y)]]").unwrap();
        assert!(!identity_holds_on(&witness, &q3, &q4, 1e-9));
    }
}
