//! Property-based tests (proptest) for the core invariants:
//!
//! * the evaluation DP agrees with exact possible-world enumeration;
//! * sampling frequencies agree with enumerated marginals;
//! * containment mappings imply answer-set containment;
//! * the syntactic c-independence test is sound for the probabilistic
//!   identity;
//! * whenever TPrewrite accepts, `fr` equals direct evaluation;
//! * an extension's candidate search equals embedding on each result's
//!   maximal world;
//! * whenever `S(q,V)` solves, its `fr` equals direct evaluation;
//! * TP∩ evaluation agrees with the union of interleavings;
//! * containment is reflexive and transitive;
//! * `tpq::intersect` is commutative up to canonical form;
//! * symbol interning round-trips (`intern(resolve(s)) == s`).

use proptest::prelude::*;
use prxview::pxml::{Label, NodeId, PDocument, PKind};
use prxview::rewrite::View;
use prxview::tpq::pattern::{Axis, TreePattern};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

const LABELS: [&str; 4] = ["a", "b", "c", "d"];

#[derive(Clone, Debug)]
enum NodeSpec {
    Ordinary(usize, Vec<NodeSpec>),
    Mux(Vec<(u32, NodeSpec)>),
    Ind(Vec<(u32, NodeSpec)>),
}

fn node_spec(depth: u32) -> impl Strategy<Value = NodeSpec> {
    let leaf = (0..LABELS.len()).prop_map(|l| NodeSpec::Ordinary(l, Vec::new()));
    leaf.prop_recursive(depth, 12, 2, |inner| {
        prop_oneof![
            3 => ((0..LABELS.len()), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(l, kids)| NodeSpec::Ordinary(l, kids)),
            1 => prop::collection::vec(((10u32..90), inner.clone()), 1..2)
                .prop_map(NodeSpec::Mux),
            1 => prop::collection::vec(((10u32..95), inner), 1..3)
                .prop_map(NodeSpec::Ind),
        ]
    })
}

fn build_node(pdoc: &mut PDocument, parent: NodeId, spec: &NodeSpec, prob: f64) {
    match spec {
        NodeSpec::Ordinary(l, kids) => {
            let n = pdoc.add_ordinary(parent, Label::new(LABELS[*l]), prob);
            for k in kids {
                build_node(pdoc, n, k, 1.0);
            }
        }
        NodeSpec::Mux(kids) => {
            let total: u32 = kids.iter().map(|&(p, _)| p).sum();
            let m = pdoc.add_dist(parent, PKind::Mux, prob);
            for (p, k) in kids {
                // Normalize so mux mass stays ≤ 1.
                build_node(pdoc, m, k, *p as f64 / (total.max(100)) as f64);
            }
        }
        NodeSpec::Ind(kids) => {
            let m = pdoc.add_dist(parent, PKind::Ind, prob);
            for (p, k) in kids {
                build_node(pdoc, m, k, *p as f64 / 100.0);
            }
        }
    }
}

fn pdoc_from_spec(specs: &[NodeSpec]) -> PDocument {
    let mut pdoc = PDocument::new(Label::new("a"));
    let root = pdoc.root();
    for s in specs {
        build_node(&mut pdoc, root, s, 1.0);
    }
    pdoc
}

prop_compose! {
    fn small_pdoc()(specs in prop::collection::vec(node_spec(3), 1..3)) -> PDocument {
        pdoc_from_spec(&specs)
    }
}

#[derive(Clone, Debug)]
struct PatSpec {
    mb_labels: Vec<usize>,
    mb_desc: Vec<bool>,
    preds: Vec<(usize, usize, bool)>, // (mb position, label, descendant?)
}

fn pattern_spec() -> impl Strategy<Value = PatSpec> {
    (
        prop::collection::vec(0..LABELS.len(), 0..3),
        prop::collection::vec(any::<bool>(), 3),
        prop::collection::vec((0..3usize, 0..LABELS.len(), any::<bool>()), 0..3),
    )
        .prop_map(|(mb_labels, mb_desc, preds)| PatSpec {
            mb_labels,
            mb_desc,
            preds,
        })
}

fn build_pattern(spec: &PatSpec) -> TreePattern {
    // Root label fixed to "a" so the pattern matches the generated roots.
    build_pattern_rooted(spec, Label::new("a"))
}

fn build_pattern_rooted(spec: &PatSpec, root: Label) -> TreePattern {
    let mut q = TreePattern::leaf(root);
    let mut mb = vec![q.root()];
    for (i, &l) in spec.mb_labels.iter().enumerate() {
        let axis = if spec.mb_desc[i % spec.mb_desc.len()] {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let n = q.add_child(*mb.last().unwrap(), axis, Label::new(LABELS[l]));
        mb.push(n);
    }
    q.set_output(*mb.last().unwrap());
    for &(pos, l, desc) in &spec.preds {
        let anchor = mb[pos % mb.len()];
        let axis = if desc { Axis::Descendant } else { Axis::Child };
        q.add_child(anchor, axis, Label::new(LABELS[l]));
    }
    q
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DP evaluation ≡ exact enumeration, for every node.
    #[test]
    fn dp_matches_enumeration(pdoc in small_pdoc(), qs in pattern_spec()) {
        let q = build_pattern(&qs);
        prop_assume!(q.len() <= 12);
        if let Some(space) = pdoc.px_space_limited(1 << 14) {
            let dp = prxview::peval::eval_tp(&pdoc, &q);
            let exact = prxview::peval::exact::eval_tp_over_space(&space, &q);
            prop_assert_eq!(dp.len(), exact.len());
            for ((n1, p1), (n2, p2)) in dp.iter().zip(&exact) {
                prop_assert_eq!(n1, n2);
                prop_assert!((p1 - p2).abs() < 1e-9, "{} vs {}", p1, p2);
            }
        }
    }

    /// Containment mapping ⇒ answer containment on sampled worlds.
    #[test]
    fn containment_implies_answers(pdoc in small_pdoc(), s1 in pattern_spec(), s2 in pattern_spec()) {
        let q1 = build_pattern(&s1);
        let q2 = build_pattern(&s2);
        if prxview::tpq::contained_in(&q1, &q2) {
            let world = prxview::peval::dp::max_world(&pdoc);
            let a1 = prxview::tpq::embed::eval(&q1, &world);
            let a2 = prxview::tpq::embed::eval(&q2, &world);
            for n in a1 {
                prop_assert!(a2.contains(&n), "containment violated at {}", n);
            }
        }
    }

    /// Syntactic c-independence ⇒ the probabilistic identity holds.
    #[test]
    fn cindep_soundness(pdoc in small_pdoc(), s1 in pattern_spec(), s2 in pattern_spec()) {
        let q1 = build_pattern(&s1);
        let q2 = build_pattern(&s2);
        prop_assume!(q1.len() + q2.len() <= 14);
        if prxview::rewrite::c_independent(&q1, &q2) {
            prop_assert!(
                prxview::rewrite::cindep::identity_holds_on(&pdoc, &q1, &q2, 1e-7),
                "syntactic test accepted a dependent pair: {} vs {}",
                q1, q2
            );
        }
    }

    /// Whenever TPrewrite accepts a view, the plan's answers equal direct
    /// evaluation.
    #[test]
    fn tp_rewriting_correct(pdoc in small_pdoc(), s1 in pattern_spec(), cut in 0..3usize) {
        let q = build_pattern(&s1);
        prop_assume!(q.mb_len() >= 2 && q.len() <= 10);
        // Use a prefix of q as the view.
        let k = 1 + (cut % q.mb_len().max(1));
        let view_pattern = q.prefix(k);
        let view = View::new("v", view_pattern);
        let views = [view.clone()];
        let accepted = prxview::rewrite::tp_rewrite(&q, &views);
        if let Some(rw) = accepted.into_iter().next() {
            let ext = prxview::rewrite::ProbExtension::materialize(&pdoc, &view);
            let got = prxview::rewrite::fr_tp::answer_tp(&rw, &ext);
            let want = prxview::peval::eval_tp(&pdoc, &q);
            prop_assert_eq!(got.len(), want.len(), "{} over {}", q, view.pattern);
            for ((n1, p1), (n2, p2)) in got.iter().zip(&want) {
                prop_assert_eq!(n1, n2);
                prop_assert!((p1 - p2).abs() < 1e-8, "{}: {} vs {}", q, p1, p2);
            }
        }
    }

    /// TP∩ evaluation over documents = union of interleavings' answers.
    #[test]
    fn interleavings_cover_intersection(pdoc in small_pdoc(), s1 in pattern_spec(), s2 in pattern_spec()) {
        let q1 = build_pattern(&s1);
        let q2 = build_pattern(&s2);
        prop_assume!(q1.mb_len() + q2.mb_len() <= 8);
        let inter = prxview::tpq::TpIntersection::new(vec![q1, q2]);
        if let Some(ils) = inter.interleavings(500) {
            let world = prxview::peval::dp::max_world(&pdoc);
            let direct = inter.eval(&world);
            let mut via: Vec<NodeId> = ils
                .iter()
                .flat_map(|i| prxview::tpq::embed::eval(i, &world))
                .collect();
            via.sort_unstable();
            via.dedup();
            prop_assert_eq!(direct, via);
        }
    }

    /// Sampling statistically agrees with enumerated node marginals.
    #[test]
    fn sampling_agrees_with_marginals(pdoc in small_pdoc(), seed in any::<u64>()) {
        use rand::SeedableRng;
        if let Some(space) = pdoc.px_space_limited(1 << 12) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Pick the first non-root ordinary node.
            if let Some(n) = pdoc.ordinary_ids().find(|&n| n != pdoc.root()) {
                let exact = space.node_marginal(n);
                let est = pdoc.estimate(&mut rng, 4_000, |d| d.contains(n));
                prop_assert!((est - exact).abs() < 0.06,
                    "marginal {} vs estimate {}", exact, est);
            }
        }
    }

    /// Containment is reflexive and transitive on generated patterns.
    #[test]
    fn containment_reflexive_and_transitive(s1 in pattern_spec(), s2 in pattern_spec(), s3 in pattern_spec()) {
        let a = build_pattern(&s1);
        let b = build_pattern(&s2);
        let c = build_pattern(&s3);
        prop_assert!(prxview::tpq::contained_in(&a, &a), "reflexivity: {}", a);
        if prxview::tpq::contained_in(&a, &b) && prxview::tpq::contained_in(&b, &c) {
            prop_assert!(
                prxview::tpq::contained_in(&a, &c),
                "transitivity: {} ⊑ {} ⊑ {}", a, b, c
            );
        }
    }

    /// `tpq::intersect` is commutative up to canonical form: the
    /// interleaving sets of q1 ∩ q2 and q2 ∩ q1 coincide as canonical-key
    /// sets, and when the intersection collapses to a single TP, the two
    /// orders produce equivalent patterns.
    #[test]
    fn intersection_commutative_up_to_canonical_form(s1 in pattern_spec(), s2 in pattern_spec()) {
        let q1 = build_pattern(&s1);
        let q2 = build_pattern(&s2);
        prop_assume!(q1.mb_len() + q2.mb_len() <= 8);
        let i12 = prxview::tpq::TpIntersection::new(vec![q1.clone(), q2.clone()]);
        let i21 = prxview::tpq::TpIntersection::new(vec![q2.clone(), q1.clone()]);
        if let (Some(a), Some(b)) = (i12.interleavings(400), i21.interleavings(400)) {
            let mut ka: Vec<String> = a.iter().map(|p| p.canonical_key()).collect();
            let mut kb: Vec<String> = b.iter().map(|p| p.canonical_key()).collect();
            ka.sort();
            ka.dedup();
            kb.sort();
            kb.dedup();
            prop_assert_eq!(ka, kb, "{} ∩ {}", q1, q2);
        }
        let t12 = prxview::tpq::intersect::intersect_to_tp(&q1, &q2, 400);
        let t21 = prxview::tpq::intersect::intersect_to_tp(&q2, &q1, 400);
        if let (Some(a), Some(b)) = (t12, t21) {
            prop_assert!(
                prxview::tpq::equivalent(&a, &b),
                "{} ∩ {}: {} vs {}", q1, q2, a, b
            );
        }
    }

    /// Interning round-trips: `intern(resolve(s)) == s` and
    /// `resolve(intern(name)) == name`.
    #[test]
    fn interning_round_trips(parts in prop::collection::vec(0..LABELS.len(), 1..5), salt in any::<u64>()) {
        use prxview::pxml::Symbol;
        let name = format!(
            "prop-{}-{}",
            parts.iter().map(|&i| LABELS[i]).collect::<Vec<_>>().join("_"),
            salt % 997
        );
        let s = Symbol::intern(&name);
        prop_assert_eq!(s.resolve(), name.as_str());
        prop_assert_eq!(Symbol::intern(s.resolve()), s);
        // And through the Label alias used by documents and patterns.
        prop_assert_eq!(Label::new(&name), s);
    }

    /// When S(q,V) solves for a view family, its fr equals direct
    /// evaluation at every answer node.
    #[test]
    fn system_fr_correct(pdoc in small_pdoc(), s in pattern_spec(), drop_mask in 0u8..8) {
        use prxview::rewrite::system::build_system;
        use prxview::rewrite::tpi_rewrite::VirtualView;
        let q = build_pattern(&s);
        prop_assume!(q.mb_len() >= 2 && q.len() <= 9 && q.len() > q.mb_len());
        // View family: per-main-branch-node predicate restrictions + mb(q).
        let mut patterns: Vec<TreePattern> = Vec::new();
        let mb = q.main_branch();
        for (i, &n) in mb.iter().enumerate() {
            if q.has_predicates(n) && (drop_mask >> (i % 8)) & 1 == 0 {
                patterns.push(q.filter_predicates(|m, _| m == n));
            }
        }
        patterns.push(q.main_branch_only());
        let sys = build_system(&q, &patterns);
        if sys.is_solvable() {
            let vviews: Vec<VirtualView> = patterns
                .iter()
                .enumerate()
                .map(|(i, pat)| {
                    let v = View::new(format!("v{i}"), pat.clone());
                    VirtualView::from_extension(
                        &prxview::rewrite::ProbExtension::materialize(&pdoc, &v),
                    )
                })
                .collect();
            let want = prxview::peval::eval_tp(&pdoc, &q);
            for (n, pw) in want {
                let got = sys.fr(&vviews, n);
                prop_assert!((got - pw).abs() < 1e-8,
                    "S(q,V) fr mismatch for {} at {}: {} vs {}", q, n, got, pw);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// An extension's candidate search (one embedding pass over its
    /// forest memo, read through its distributional slots) equals its
    /// definition: the compensation's answers on every result subtree's
    /// maximal world, mapped to original nodes. A layout fault shows only
    /// where a distributional node sits below a result root's children,
    /// which few small documents have: hence more cases than the
    /// properties above.
    #[test]
    fn extension_candidates_match_max_world_embedding(
        pdoc in small_pdoc(),
        sv in pattern_spec(),
        sc in pattern_spec(),
    ) {
        let view = View::new("v", build_pattern(&sv));
        let compensation = build_pattern_rooted(&sc, view.pattern.output_label());
        let ext = prxview::rewrite::ProbExtension::materialize(&pdoc, &view);
        let want: std::collections::BTreeSet<NodeId> = (0..ext.results.len())
            .flat_map(|i| {
                let world = prxview::peval::dp::max_world(&ext.result_subtree(i));
                prxview::tpq::embed::eval(&compensation, &world)
            })
            .filter_map(|e| ext.original_of(e))
            .collect();
        prop_assert_eq!(ext.candidates(&compensation), want, "{} over {}", compensation, view.pattern);
    }
}
