//! Extra coverage for the probability functions: deep
//! inclusion–exclusion, the partial-token α branch (`s(i,j) ≤ m`),
//! randomized cross-validation of TPrewrite plans, and ablations between
//! the Theorem 1 / Theorem 3 / Theorem 5 formulas where several apply.

use pxv_pxml::text::parse_pdocument;
use pxv_pxml::{NodeId, PDocument};
use pxv_rewrite::fr_tp::answer_tp;
use pxv_rewrite::tp_rewrite::tp_rewrite;
use pxv_rewrite::view::ProbExtension;
use pxv_rewrite::View;
use pxv_tpq::parse::parse_pattern;
use pxv_tpq::TreePattern;

fn p(s: &str) -> TreePattern {
    parse_pattern(s).unwrap()
}

fn check(pdoc: &PDocument, q: &TreePattern, view: &View, ctx: &str) {
    let views = vec![view.clone()];
    let rs = tp_rewrite(q, &views);
    assert_eq!(rs.len(), 1, "{ctx}: expected a plan");
    let ext = ProbExtension::materialize(pdoc, view);
    let got = answer_tp(&rs[0], &ext);
    let want = pxv_peval::eval_tp(pdoc, q);
    assert_eq!(got.len(), want.len(), "{ctx}\n got {got:?}\nwant {want:?}");
    for ((n1, p1), (n2, p2)) in got.iter().zip(&want) {
        assert_eq!(n1, n2, "{ctx}");
        assert!((p1 - p2).abs() < 1e-8, "{ctx} at {n1}: {p1} vs {p2}");
    }
}

#[test]
fn four_nested_ancestors_inclusion_exclusion() {
    // 2^4 - 1 = 15 subset terms.
    let pdoc = parse_pdocument(
        "a#0[b#1[ind#2(0.9: b#3[ind#4(0.8: b#5[ind#6(0.7: b#7[mux#8(0.6: d#9)])])])]]",
    )
    .unwrap();
    let q = p("a//b//d");
    let view = View::new("bs", p("a//b"));
    check(&pdoc, &q, &view, "four ancestors");
}

#[test]
fn ancestors_with_view_output_predicates() {
    // The view carries predicates on out(v) whose packed probability must
    // be divided away inside every inclusion-exclusion term.
    let pdoc = parse_pdocument("a#0[b#1[ind#2(0.5: m#3), b#4[ind#5(0.7: m#6), mux#7(0.8: d#8)]]]")
        .unwrap();
    let q = p("a//b[m]//d");
    let view = View::new("bm", p("a//b[m]"));
    check(&pdoc, &q, &view, "output predicates + nesting");
}

#[test]
fn partial_token_alpha_close_ancestors() {
    // v's last token has length m = 2 with prefix-suffix u = 1 (labels
    // b, b); two view results at distance s = 2 ≤ m overlap on one node,
    // forcing the partial-token α pattern.
    let pdoc =
        parse_pdocument("a#0[b#1[b#2[b#3[mux#4(0.5: d#5)], ind#6(0.4: x#7)], ind#8(0.6: x#9)]]")
            .unwrap();
    // v = a//b/b: images (b1,b2), (b2,b3): selected nodes b2, b3 — nested.
    let q = p("a//b/b//d");
    let view = View::new("bb", p("a//b/b"));
    check(&pdoc, &q, &view, "partial-token α");
}

#[test]
fn chain_of_results_mixed_distances() {
    // Mix of s ≤ m and s > m ancestor pairs in one answer.
    let pdoc = parse_pdocument(
        "a#0[b#1[b#2[c#3[b#4[b#5[mux#6(0.35: d#7)], ind#8(0.45: y#9)]]], ind#10(0.55: y#11)]]",
    )
    .unwrap();
    let q = p("a//b/b//d");
    let view = View::new("bb", p("a//b/b"));
    check(&pdoc, &q, &view, "mixed distances");
}

#[test]
fn randomized_tp_plans_cross_validated() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(321);
    let cfg = pxv_pxml::generators::RandomPDocConfig {
        max_depth: 6,
        target_size: 25,
        ..Default::default()
    };
    let queries = [
        "a//b/c",
        "a//b[c]",
        "a//b[c]/d",
        "a//b//c",
        "a/b//c[d]",
        "a//b[e]/c",
    ];
    let views = ["a//b", "a//b", "a//b[c]", "a//b", "a/b", "a//b[e]"];
    let mut plans = 0;
    for round in 0..40 {
        let pdoc = pxv_pxml::generators::random_pdocument(&cfg, &mut rng);
        if pdoc.label(pdoc.root()) != Some(pxv_pxml::Label::new("a")) {
            continue;
        }
        for (qs, vs) in queries.iter().zip(&views) {
            let q = p(qs);
            let view = View::new("v", p(vs));
            let rs = tp_rewrite(&q, std::slice::from_ref(&view));
            let Some(rw) = rs.into_iter().next() else {
                continue;
            };
            plans += 1;
            let ext = ProbExtension::materialize(&pdoc, &view);
            let got = answer_tp(&rw, &ext);
            let want = pxv_peval::eval_tp(&pdoc, &q);
            assert_eq!(got.len(), want.len(), "round {round} q={qs} v={vs}");
            for ((n1, p1), (n2, p2)) in got.iter().zip(&want) {
                assert_eq!(n1, n2, "round {round} q={qs}");
                assert!(
                    (p1 - p2).abs() < 1e-8,
                    "round {round} q={qs} at {n1}: {p1} vs {p2}"
                );
            }
        }
    }
    assert!(plans > 20, "too few plans exercised: {plans}");
}

#[test]
fn theorem_1_and_system_agree_when_both_apply() {
    // Identity-ish case: the query equals a view; both the TP plan
    // (Theorem 1) and the S(q,V) plan exist and must agree.
    use pxv_rewrite::system::build_system;
    use pxv_rewrite::tpi_rewrite::VirtualView;
    let pdoc =
        parse_pdocument("a#0[ind#1(0.7: x#2), b#3[mux#4(0.6: c#5[ind#6(0.5: y#7)])]]").unwrap();
    let q = p("a[x]/b/c[y]");
    let view = View::new("id", q.clone());
    // Theorem 1 route.
    let rs = tp_rewrite(&q, std::slice::from_ref(&view));
    let ext = ProbExtension::materialize(&pdoc, &view);
    let tp_ans = answer_tp(&rs[0], &ext);
    // S(q,V) route.
    let sys = build_system(&q, std::slice::from_ref(&q));
    assert!(sys.is_solvable());
    let vv = vec![VirtualView::from_extension(&ext)];
    let sys_ans = sys.answer(&vv);
    assert_eq!(tp_ans.len(), sys_ans.len());
    for ((n1, p1), (n2, p2)) in tp_ans.iter().zip(&sys_ans) {
        assert_eq!(n1, n2);
        assert!((p1 - p2).abs() < 1e-9, "{p1} vs {p2}");
    }
    // Both agree with direct evaluation.
    let want = pxv_peval::eval_tp(&pdoc, &q);
    assert_eq!(tp_ans.len(), want.len());
    for ((n1, p1), (n2, p2)) in tp_ans.iter().zip(&want) {
        assert_eq!(n1, n2);
        assert!((p1 - p2).abs() < 1e-9);
    }
}

#[test]
fn product_and_system_agree_on_independent_views() {
    use pxv_rewrite::system::build_system;
    use pxv_rewrite::tpi_rewrite::VirtualView;
    let pdoc =
        parse_pdocument("a#0[ind#1(0.8: u#2), b#3[ind#4(0.9: w#5), mux#6(0.7: c#7)]]").unwrap();
    let q = p("a[u]/b[w]/c");
    let patterns = vec![p("a[u]/b/c"), p("a/b[w]/c"), p("a/b/c")];
    let vviews: Vec<VirtualView> = patterns
        .iter()
        .enumerate()
        .map(|(i, pat)| {
            let v = View::new(format!("v{i}"), pat.clone());
            VirtualView::from_extension(&ProbExtension::materialize(&pdoc, &v))
        })
        .collect();
    // Theorem 5 system route.
    let sys = build_system(&q, &patterns);
    assert!(sys.is_solvable());
    let sysa = sys.answer(&vviews);
    assert_eq!(sysa.len(), 1);
    let (n, got) = sysa[0];
    assert_eq!(n, NodeId(7));
    // Theorem 3's product, with v2 = mb(q) giving Pr(n ∈ P) (Lemma 3).
    let product = vviews[0].prob(n) * vviews[1].prob(n) / vviews[2].prob(n);
    assert!((got - product).abs() < 1e-9, "{got} vs {product}");
    // And with ground truth 0.8·0.9·0.7.
    assert!((got - 0.8 * 0.9 * 0.7).abs() < 1e-9);
}

#[test]
fn nested_results_with_predicates_on_last_token_rejected_when_u_positive() {
    // Guard: Example 12's obstruction generalizes; the planner must refuse
    // rather than produce wrong numbers.
    let q = p("a//b[e]/b//d");
    let views = vec![View::new("v", p("a//b[e]/b"))];
    // Last token b/b has u = 1; first u-1 = 0 nodes — condition holds!
    // (u = 1 imposes nothing.) So this IS accepted; verify correctness on
    // a nasty document instead.
    let rs = tp_rewrite(&q, &views);
    assert_eq!(rs.len(), 1);
    let pdoc =
        parse_pdocument("a#0[b#1[ind#2(0.5: e#3), b#4[ind#5(0.6: e#6), b#7[mux#8(0.7: d#9)]]]]")
            .unwrap();
    let ext = ProbExtension::materialize(&pdoc, &views[0]);
    let got = answer_tp(&rs[0], &ext);
    let want = pxv_peval::eval_tp(&pdoc, &q);
    assert_eq!(got.len(), want.len());
    for ((n1, p1), (n2, p2)) in got.iter().zip(&want) {
        assert_eq!(n1, n2);
        assert!((p1 - p2).abs() < 1e-8, "at {n1}: {p1} vs {p2}");
    }
}
