//! TP∩-rewritings from pairwise c-independent views (§5.2, Theorem 3) and
//! the c-independent cover search (NP-hard, Theorem 4).
//!
//! With persistent node ids, a plan intersects several view extensions:
//! `qr = doc(v1)/v1 ∩ … ∩ doc(vm)/vm`. When the views are pairwise
//! c-independent and some view recovers the appearance probability
//! (Lemma 3: `mb(q) ⊑ vi`), the probability function is the product
//! formula of Eq. 4/5:
//!
//! ```text
//! fr(n) = Π_i Pr(n ∈ vi(P))  ÷  Pr(n ∈ P)^(m-1)
//! ```

use crate::cindep::c_independent;
use pxv_pxml::NodeId;
use pxv_tpq::containment::contained_in;
use pxv_tpq::intersect::TpIntersection;
use pxv_tpq::pattern::TreePattern;
use std::collections::HashMap;

/// A view (possibly compensated) whose per-node result probabilities have
/// been materialized — either directly from a `ProbExtension` or through a
/// §4 probability function for compensated views.
#[derive(Clone, Debug)]
pub struct VirtualView {
    /// The (unfolded) pattern this virtual view computes.
    pub pattern: TreePattern,
    /// `Pr(n ∈ v(P))` for every node with positive probability.
    pub probs: HashMap<NodeId, f64>,
}

impl VirtualView {
    /// From a materialized extension.
    pub fn from_extension(ext: &crate::view::ProbExtension) -> VirtualView {
        VirtualView {
            pattern: ext.view.pattern.clone(),
            probs: ext.results.iter().map(|r| (r.orig, r.prob)).collect(),
        }
    }

    /// From a compensated view evaluated through a TP-rewriting `fr`
    /// (requires the §4 conditions — checked by the caller / TPIrewrite).
    pub fn from_compensated(
        rw: &crate::tp_rewrite::TpRewriting,
        ext: &crate::view::ProbExtension,
    ) -> VirtualView {
        let pattern = pxv_tpq::compose::comp(&ext.view.pattern, &rw.compensation);
        VirtualView {
            pattern,
            probs: crate::fr_tp::answer_tp(rw, ext).into_iter().collect(),
        }
    }

    /// `Pr(n ∈ v(P))`, zero when absent.
    pub fn prob(&self, n: NodeId) -> f64 {
        self.probs.get(&n).copied().unwrap_or(0.0)
    }
}

/// Why Theorem 3 does not apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProductReject {
    /// Some view does not contain `q` (the intersection would lose nodes).
    ViewDoesNotContainQuery(usize),
    /// The intersection is not a deterministic rewriting of `q`.
    NotEquivalent,
    /// Interleaving blow-up: equivalence test aborted.
    EquivalenceTooExpensive,
    /// Views are not pairwise c-independent.
    NotPairwiseCIndependent(usize, usize),
    /// No view with `mb(q) ⊑ vi`: `Pr(n ∈ P)` is not recoverable
    /// (Lemma 3).
    NoAppearanceView,
}

/// A product-form TP∩-rewriting (Theorem 3).
#[derive(Clone, Debug)]
pub struct ProductRewriting {
    /// Indices (into the checked pattern list) of the intersected views.
    pub parts: Vec<usize>,
    /// Index of the view used to read `Pr(n ∈ P)` (satisfies
    /// `mb(q) ⊑ vi`).
    pub appearance_view: usize,
}

/// Checks Theorem 3's conditions for intersecting exactly `patterns`
/// (already unfolded).
pub fn check_product_rewriting(
    q: &TreePattern,
    patterns: &[TreePattern],
    interleaving_limit: usize,
) -> Result<ProductRewriting, ProductReject> {
    for (i, v) in patterns.iter().enumerate() {
        if !contained_in(q, v) {
            return Err(ProductReject::ViewDoesNotContainQuery(i));
        }
    }
    // Pairwise c-independence.
    for i in 0..patterns.len() {
        for j in i + 1..patterns.len() {
            if !c_independent(&patterns[i], &patterns[j]) {
                return Err(ProductReject::NotPairwiseCIndependent(i, j));
            }
        }
    }
    // Lemma 3: appearance probability must be recoverable.
    let mbq = q.main_branch_only();
    let appearance_view = patterns
        .iter()
        .position(|v| contained_in(&mbq, v))
        .ok_or(ProductReject::NoAppearanceView)?;
    // Deterministic rewriting: ∩ patterns ≡ q.
    let inter = TpIntersection::new(patterns.to_vec());
    match inter.equivalent_to_tp(q, interleaving_limit) {
        None => Err(ProductReject::EquivalenceTooExpensive),
        Some(false) => Err(ProductReject::NotEquivalent),
        Some(true) => Ok(ProductRewriting {
            parts: (0..patterns.len()).collect(),
            appearance_view,
        }),
    }
}

/// The Theorem 3 probability function: product over view probabilities,
/// divided by the appearance probability `m − 1` times. Touches only the
/// virtual views (i.e. materialized extensions).
pub fn fr_product(rw: &ProductRewriting, views: &[VirtualView], n: NodeId) -> f64 {
    let pn = views[rw.appearance_view].prob(n);
    if pn <= 0.0 {
        return 0.0;
    }
    let mut num = 1.0;
    for &i in &rw.parts {
        let p = views[i].prob(n);
        if p <= 0.0 {
            return 0.0;
        }
        num *= p;
    }
    num / pn.powi(rw.parts.len() as i32 - 1)
}

/// Answers the plan: nodes present in every view, with their Theorem 3
/// probabilities.
pub fn answer_product(rw: &ProductRewriting, views: &[VirtualView]) -> Vec<(NodeId, f64)> {
    let mut candidates: Vec<NodeId> = views[rw.parts[0]].probs.keys().copied().collect();
    candidates.retain(|n| rw.parts.iter().all(|&i| views[i].prob(*n) > 0.0));
    candidates.sort_unstable();
    candidates
        .into_iter()
        .map(|n| (n, fr_product(rw, views, n)))
        .filter(|&(_, p)| p > 0.0)
        .collect()
}

/// Exhaustive search for a subset of pairwise c-independent views forming
/// a Theorem 3 rewriting. NP-hard in general (Theorem 4) — this is the
/// brute-force baseline (see `examples/view_selection.rs`).
pub fn find_c_independent_cover(
    q: &TreePattern,
    patterns: &[TreePattern],
    interleaving_limit: usize,
) -> Option<Vec<usize>> {
    let m = patterns.len();
    assert!(m <= 24, "exhaustive cover search capped at 24 views");
    // Precompute pairwise independence and usability.
    let usable: Vec<bool> = patterns.iter().map(|v| contained_in(q, v)).collect();
    let mut indep = vec![vec![false; m]; m];
    for i in 0..m {
        for j in i + 1..m {
            indep[i][j] = c_independent(&patterns[i], &patterns[j]);
            indep[j][i] = indep[i][j];
        }
    }
    // Subsets in increasing size order (smallest rewriting first).
    let mut subsets: Vec<u32> = (1u32..(1 << m)).collect();
    subsets.sort_by_key(|s| s.count_ones());
    'outer: for s in subsets {
        let idx: Vec<usize> = (0..m).filter(|&i| s & (1 << i) != 0).collect();
        for &i in &idx {
            if !usable[i] {
                continue 'outer;
            }
        }
        for a in 0..idx.len() {
            for b in a + 1..idx.len() {
                if !indep[idx[a]][idx[b]] {
                    continue 'outer;
                }
            }
        }
        let chosen: Vec<TreePattern> = idx.iter().map(|&i| patterns[i].clone()).collect();
        let inter = TpIntersection::new(chosen);
        if inter.equivalent_to_tp(q, interleaving_limit) == Some(true) {
            return Some(idx);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tp_rewrite::try_view;
    use crate::view::{ProbExtension, View};
    use pxv_pxml::examples_paper::fig2_pper;
    use pxv_tpq::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    #[test]
    fn example_15_product_rewriting() {
        // qRBON = v1BON ∩ comp(doc(v2BON)/bonus, q_(3)); probability
        // 0.75 × 0.9 ÷ 1 = 0.675.
        let pper = fig2_pper();
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let v1 = View::new("v1BON", p("IT-personnel//person[name/Rick]/bonus"));
        let v2 = View::new("v2BON", p("IT-personnel//person/bonus"));

        // The compensated view w = comp(v2BON, q_(3)) = qBON, whose
        // probabilities come from v2BON's extension through §4 machinery.
        let w = pxv_tpq::compose::comp(&v2.pattern, &q.suffix(3));
        let rw2 = try_view(&w, std::slice::from_ref(&v2), 0).expect("v2BON compensable");
        let ext1 = ProbExtension::materialize(&pper, &v1);
        let ext2 = ProbExtension::materialize(&pper, &v2);
        let vv1 = VirtualView::from_extension(&ext1);
        let vv2c = VirtualView::from_compensated(&rw2, &ext2);
        let vv2plain = VirtualView::from_extension(&ext2); // appearance source

        let patterns = vec![
            vv1.pattern.clone(),
            vv2c.pattern.clone(),
            vv2plain.pattern.clone(),
        ];
        let prw = check_product_rewriting(&q, &patterns, 1000).expect("Theorem 3 applies");
        assert_eq!(prw.appearance_view, 2);
        let views = vec![vv1, vv2c, vv2plain];
        let pr = fr_product(&prw, &views, pxv_pxml::NodeId(5));
        assert!((pr - 0.675).abs() < 1e-9, "fr(n5) = {pr}");
        let ans = answer_product(&prw, &views);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].0, pxv_pxml::NodeId(5));
    }

    #[test]
    fn dependent_views_rejected() {
        let q = p("a[1]/b[2]/c");
        let patterns = vec![p("a[1]/b/c"), p("a[1]/b[2]/c")];
        assert!(matches!(
            check_product_rewriting(&q, &patterns, 100),
            Err(ProductReject::NotPairwiseCIndependent(0, 1))
        ));
    }

    #[test]
    fn missing_appearance_view_rejected() {
        // Both views carry predicates covering q, but none contains mb(q).
        let q = p("a[1]/b[2]/c");
        let patterns = vec![p("a[1]/b/c"), p("a/b[2]/c")];
        assert!(matches!(
            check_product_rewriting(&q, &patterns, 100),
            Err(ProductReject::NoAppearanceView)
        ));
    }

    #[test]
    fn product_with_appearance_view_accepted_and_correct() {
        // Views a[1]/b/c, a/b[2]/c, a/b/c over a random-ish p-document.
        use pxv_pxml::text::parse_pdocument;
        let q = p("a[1]/b[2]/c");
        let patterns = vec![p("a[1]/b/c"), p("a/b[2]/c"), p("a/b/c")];
        let prw = check_product_rewriting(&q, &patterns, 100).expect("applies");
        assert_eq!(prw.appearance_view, 2);
        let pdoc =
            parse_pdocument("a#0[ind#1(0.6: 1#2), b#3[ind#4(0.7: 2#5), mux#6(0.8: c#7)]]").unwrap();
        let views: Vec<VirtualView> = patterns
            .iter()
            .enumerate()
            .map(|(i, pat)| {
                let v = View::new(format!("v{i}"), pat.clone());
                VirtualView::from_extension(&ProbExtension::materialize(&pdoc, &v))
            })
            .collect();
        let got = fr_product(&prw, &views, pxv_pxml::NodeId(7));
        let want = pxv_peval::eval_tp_at(&pdoc, &q, pxv_pxml::NodeId(7));
        assert!((want - 0.6 * 0.7 * 0.8).abs() < 1e-9);
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    #[test]
    fn cover_search_finds_minimal_subset() {
        let q = p("a[1]/a[2]/a//b");
        let patterns = vec![
            p("a[1]/a/a//b"),    // {1}
            p("a/a[2]/a//b"),    // {2}
            p("a[1]/a[2]/a//b"), // {1,2}
        ];
        let cover = find_c_independent_cover(&q, &patterns, 1000).unwrap();
        // Either {2 alone? no — [1] missing}; valid covers: {0,1} or {2}.
        let ok = cover == vec![0, 1] || cover == vec![2];
        assert!(ok, "cover = {cover:?}");
        // Size-ordered search returns the singleton {2} first.
        assert_eq!(cover, vec![2]);
    }

    #[test]
    fn cover_search_fails_when_views_overlap() {
        // Only overlapping views available: no pairwise-independent cover.
        let q = p("a[1]/a[2]/a[3]/a//b");
        let patterns = vec![p("a[1]/a[2]/a/a//b"), p("a/a[2]/a[3]/a//b")];
        assert!(find_c_independent_cover(&q, &patterns, 1000).is_none());
    }
}
