//! Integration tests replaying every worked example of the paper
//! end-to-end across the crates (the executable companion of
//! EXPERIMENTS.md E1–E12).

use prxview::pxml::examples_paper::*;
use prxview::pxml::{NodeId, PDocument, PxSpace};
use prxview::rewrite::view::ProbExtension;
use prxview::rewrite::View;
use prxview::tpq::parse::parse_pattern;
use prxview::tpq::TreePattern;

fn p(s: &str) -> TreePattern {
    parse_pattern(s).unwrap()
}

fn qrbon() -> TreePattern {
    p("IT-personnel//person[name/Rick]/bonus[laptop]")
}
fn qbon() -> TreePattern {
    p("IT-personnel//person/bonus[laptop]")
}
fn v1bon() -> TreePattern {
    p("IT-personnel//person[name/Rick]/bonus")
}
fn v2bon() -> TreePattern {
    p("IT-personnel//person/bonus")
}

/// E1 — Examples 1–3: `dPER`, `P̂PER`, and `Pr(dPER) = 0.4725`.
#[test]
fn e1_pper_semantics() {
    let d = fig1_dper();
    let pper = fig2_pper();
    assert!(pper.validate().is_ok());
    let space: PxSpace = pper.px_space();
    assert!((space.total_probability() - 1.0).abs() < 1e-9);
    let pr_dper = space.probability_where(|w| w.id_set_key() == d.id_set_key());
    assert!((pr_dper - 0.4725).abs() < 1e-9);
    // Distinct worlds: 2 (Rick/John) × 2 (pda/laptop) × 2 (ind-pair/15),
    // since every mux has full mass and the ind children are certain.
    assert_eq!(space.len(), 8);
}

/// E2 — Examples 4–5: query parsing and answers over `dPER`.
#[test]
fn e2_queries_over_dper() {
    let d = fig1_dper();
    use prxview::tpq::embed::eval;
    assert_eq!(eval(&qrbon(), &d), vec![NodeId(5)]);
    assert_eq!(eval(&qbon(), &d), vec![NodeId(5)]);
    assert_eq!(eval(&v1bon(), &d), vec![NodeId(5)]);
    assert_eq!(eval(&v2bon(), &d), vec![NodeId(5), NodeId(7)]);
}

/// E3 — Example 6: probabilistic answers over `P̂PER`.
#[test]
fn e3_probabilistic_answers() {
    let pper = fig2_pper();
    let n5 = NodeId(5);
    assert!((prxview::peval::eval_tp_at(&pper, &qbon(), n5) - 0.9).abs() < 1e-9);
    assert!((prxview::peval::eval_tp_at(&pper, &v1bon(), n5) - 0.75).abs() < 1e-9);
    assert!((prxview::peval::eval_tp_at(&pper, &qrbon(), n5) - 0.675).abs() < 1e-9);
    let v2_answers = prxview::peval::eval_tp(&pper, &v2bon());
    assert_eq!(v2_answers, vec![(NodeId(5), 1.0), (NodeId(7), 1.0)]);
}

/// E4 — Examples 7–8: view extensions, deterministic and probabilistic.
#[test]
fn e4_view_extensions() {
    let d = fig1_dper();
    let pper = fig2_pper();
    let v1 = View::new("v1BON", v1bon());
    // The deterministic extension d_v is the extension of the lifted
    // document: every result is certain.
    let det = ProbExtension::materialize(&PDocument::from_document(&d), &v1);
    assert_eq!(det.results.len(), 1);
    assert_eq!(det.results[0].orig, NodeId(5));
    assert_eq!(det.results[0].prob, 1.0);
    let prob = ProbExtension::materialize(&pper, &v1);
    assert_eq!(prob.results.len(), 1);
    assert!((prob.results[0].prob - 0.75).abs() < 1e-9);
    // Id markers expose identity: n5 occurs once in its result subtree.
    let occ = prob.occurrences_in_result(0, NodeId(5));
    assert_eq!(occ.len(), 1);
}

/// E5 — Examples 9–10: prefixes, suffixes, tokens, `q′`, `v′`, `q″`.
#[test]
fn e5_structural_operations() {
    let q = qrbon();
    // Example 9: tokens t1 = IT-personnel, t2 = person[...]/bonus[laptop].
    assert_eq!(q.token_ranges(), vec![(1, 1), (2, 3)]);
    let suffix2 = q.suffix(2);
    assert_eq!(
        suffix2.canonical_key(),
        p("person[name/Rick]/bonus[laptop]").canonical_key()
    );
    // Example 10 (k = 3): q′, q″, v′.
    let qp = q.prefix(3).strip_output_predicates();
    assert_eq!(qp.canonical_key(), v1bon().canonical_key());
    let qpp = q.prefix(3).only_output_predicates();
    assert_eq!(qpp.canonical_key(), qbon().canonical_key());
    let v = v1bon();
    assert_eq!(
        v.strip_output_predicates().canonical_key(),
        v1bon().canonical_key()
    );
}

/// E6 — Example 11 / Figure 5 (left): deterministic rewriting exists, no
/// probabilistic one; the two witnesses are extension-indistinguishable.
#[test]
fn e6_example_11_witnesses() {
    let q = p("a/b[c]");
    let v = View::new("v", p("a[.//c]/b"));
    // Deterministic rewriting exists (Fact 1)…
    let unfolded = prxview::tpq::comp(&v.pattern, &q.suffix(2));
    assert!(prxview::tpq::equivalent(&unfolded, &q));
    // …but TPrewrite rejects (v′ ̸⊥ q″)…
    assert!(prxview::rewrite::tp_rewrite(&q, std::slice::from_ref(&v)).is_empty());
    // …and rightly so: P̂1, P̂2 differ on q but have identical extensions.
    let p1 = fig5_p1();
    let p2 = fig5_p2();
    let q1 = prxview::peval::eval_tp_at(&p1, &q, fig5_p1_b());
    let q2 = prxview::peval::eval_tp_at(&p2, &q, fig5_p2_b());
    assert!((q1 - 0.325).abs() < 1e-9);
    assert!((q2 - 0.5).abs() < 1e-9);
    let e1 = ProbExtension::materialize(&p1, &v);
    let e2 = ProbExtension::materialize(&p2, &v);
    assert_eq!(e1.results.len(), 1);
    assert_eq!(e2.results.len(), 1);
    assert!((e1.results[0].prob - 0.65).abs() < 1e-9);
    assert!((e2.results[0].prob - 0.65).abs() < 1e-9);
    // The bundled subtrees are structurally identical (b with a 0.5-mux c).
    let s1 = e1.result_subtree(0);
    let s2 = e2.result_subtree(0);
    assert_eq!(s1.distributional_count(), s2.distributional_count());
    assert_eq!(s1.ordinary_ids().count(), s2.ordinary_ids().count());
}

/// E7 — Example 12 / Figure 5 (right): the prefix-suffix obstruction.
#[test]
fn e7_example_12_witnesses() {
    let q = p("a//b[e]/c/b/c//d");
    let v = View::new("v", p("a//b[e]/c/b/c"));
    let (nc1, nc2, nd) = fig5_chain_nodes();
    let p3 = fig5_p3();
    let p4 = fig5_p4();
    // u = 2 for the last token (b, c, b, c).
    let t = v.pattern.last_token();
    let labels = t.mb_labels(1, t.mb_len());
    assert_eq!(prxview::tpq::pattern::max_prefix_suffix(&labels), 2);
    // Probabilities differ…
    assert!((prxview::peval::eval_tp_at(&p3, &q, nd) - 0.288).abs() < 1e-9);
    assert!((prxview::peval::eval_tp_at(&p4, &q, nd) - 0.264).abs() < 1e-9);
    // …while the extensions agree (0.12 at nc1, 0.24 at nc2, same trees).
    for pdoc in [&p3, &p4] {
        let ext = ProbExtension::materialize(pdoc, &v);
        let probs: Vec<(NodeId, f64)> = ext.results.iter().map(|r| (r.orig, r.prob)).collect();
        assert_eq!(probs.len(), 2);
        assert_eq!(probs[0].0, nc1);
        assert!((probs[0].1 - 0.12).abs() < 1e-9);
        assert_eq!(probs[1].0, nc2);
        assert!((probs[1].1 - 0.24).abs() < 1e-9);
    }
    // TPrewrite rejects.
    assert!(prxview::rewrite::tp_rewrite(&q, &[v]).is_empty());
}

/// E8 — Example 13: the restricted plan's `fr` over `(P̂PER)_{v2BON}`.
#[test]
fn e8_example_13_restricted_plan() {
    use prxview::engine::Engine;
    let mut engine = Engine::new();
    let doc = engine.add_document("pper", fig2_pper()).unwrap();
    engine.register_view(View::new("v2BON", v2bon())).unwrap();
    let answer = engine.answer(doc, &qbon()).expect("plan exists");
    assert!(matches!(answer.plan, Some(prxview::rewrite::Plan::Tp(_))));
    assert_eq!(answer.stats.extensions_touched, 1);
    assert_eq!(answer.nodes.len(), 1);
    assert_eq!(answer.nodes[0].0, NodeId(5));
    assert!((answer.nodes[0].1 - 0.9).abs() < 1e-9);
}

/// E9 — Theorem 2 boundary: accept/reject matrix around Example 12.
#[test]
fn e9_theorem_2_matrix() {
    use prxview::rewrite::tp_rewrite::{try_view, TpReject};
    // Rejected: predicates on the prefix-suffix zone.
    let q1 = p("a//b[e]/c/b/c//d");
    let v1 = vec![View::new("v", p("a//b[e]/c/b/c"))];
    assert_eq!(
        try_view(&q1, &v1, 0).err(),
        Some(TpReject::PrefixSuffixPredicates)
    );
    // Accepted: same shape, predicate moved to the token output.
    let q2 = p("a//b/c/b/c[e]//d");
    let v2 = vec![View::new("v", p("a//b/c/b/c[e]"))];
    assert!(try_view(&q2, &v2, 0).is_ok());
    // Accepted: u = 0 tokens need no condition.
    let q3 = p("a//b[e]/c//d");
    let v3 = vec![View::new("v", p("a//b[e]/c"))];
    let rw = try_view(&q3, &v3, 0).unwrap();
    assert_eq!(rw.u, 0);
    assert!(!rw.restricted);
}

/// E10 — Example 15: product-form TP∩ probability `0.75 × 0.9 ÷ 1`.
#[test]
fn e10_example_15_product() {
    use prxview::engine::{Engine, PlanPreference, QueryOptions};
    let q = qrbon();
    let mut engine = Engine::new();
    let doc = engine.add_document("pper", fig2_pper()).unwrap();
    engine
        .register_views([View::new("v1BON", v1bon()), View::new("v2BON", v2bon())])
        .unwrap();
    // Force the TP∩ path (TPIrewrite) and check the numbers.
    let tpi_only = QueryOptions::new().plan_preference(PlanPreference::TpiOnly);
    let answer = engine
        .answer_with(doc, &q, &tpi_only)
        .expect("TPIrewrite plans");
    assert!(matches!(answer.plan, Some(prxview::rewrite::Plan::Tpi(_))));
    assert_eq!(answer.nodes.len(), 1);
    assert_eq!(answer.nodes[0].0, NodeId(5));
    assert!(
        (answer.nodes[0].1 - 0.675).abs() < 1e-9,
        "{:?}",
        answer.nodes
    );
}

/// E11 — Example 16: the `S(q,V)` system with dependent views.
#[test]
fn e11_example_16_system() {
    use prxview::rewrite::system::build_system;
    let q = p("a[1]/b[2]/c[3]/d");
    let views = vec![
        p("a[1]/b/c[3]/d"),
        p("a/b[2]/c[3]/d"),
        p("a[1]/b[2]/c/d"),
        p("a//d"),
    ];
    let sys = build_system(&q, &views);
    assert!(sys.is_solvable());
    // Dropping v4 (the appearance source) breaks solvability.
    let sys2 = build_system(&q, &views[..3]);
    assert!(!sys2.is_solvable());
}

/// E12 — Theorem 4: the matching reduction agrees with the direct check.
#[test]
fn e12_theorem_4_reduction() {
    use prxview::rewrite::hardness::*;
    assert!(matching_via_rewriting(4, &[vec![1, 2], vec![3, 4]]));
    assert!(!matching_via_rewriting(4, &[vec![1, 2], vec![2, 3]]));
    assert!(matching_via_rewriting(
        6,
        &[vec![1, 2, 3], vec![4, 5, 6], vec![2, 3, 4]]
    ));
    assert!(!matching_via_rewriting(
        6,
        &[vec![1, 2, 3], vec![3, 4, 5], vec![5, 6, 1]]
    ));
}
