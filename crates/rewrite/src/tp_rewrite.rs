//! Probabilistic TP-rewritings: the **TPrewrite** algorithm (§4, Figure 6).
//!
//! Without persistent node ids, a rewriting uses a single view extension by
//! navigation: `qr = comp(doc(v)/lbl(v), q_(k))` with `k = |mb(v)|`
//! (Fact 1). A probabilistic rewriting `(qr, fr)` additionally requires
//! (Prop. 3, Thm. 1, Thm. 2):
//!
//! 1. `comp(v, q_(k)) ≡ q` — the deterministic rewriting exists;
//! 2. `v′ ⊥ q″` — the view's packed predicates cannot interact with the
//!    compensation's predicates at depth `k`;
//! 3. either the plan is *restricted* (Def. 5: no `//` on `mb(v)` or no
//!    `//` on the compensation's main branch), or the first `u − 1` nodes
//!    of `v`'s last token are predicate-free, where `u` is the token's
//!    maximal prefix-suffix.

use crate::cindep::c_independent;
use crate::view::View;
use pxv_peval::dp::Conjunction;
use pxv_tpq::compose::comp;
use pxv_tpq::containment::equivalent;
use pxv_tpq::pattern::{max_prefix_suffix, TreePattern};

/// A (probabilistic) TP-rewriting accepted by TPrewrite.
#[derive(Clone, Debug)]
pub struct TpRewriting {
    /// Index of the view in the input view set.
    pub view_index: usize,
    /// `k = |mb(v)|`: the compensation depth.
    pub k: usize,
    /// The compensation `q_(k)` (rooted at `lbl(v)`); the plan is
    /// `comp(doc(v)/lbl(v), q_(k))`.
    pub compensation: TreePattern,
    /// Whether the plan is restricted (Def. 5) — if so, `fr` is the simple
    /// Theorem 1 division.
    pub restricted: bool,
    /// Maximal prefix-suffix length of the view's last token (§4.4).
    pub u: usize,
    /// `compensation` with a pin under its output, compiled once for the
    /// DP of every `fr` over this plan (see [`crate::fr_tp`]).
    pub(crate) pinned: Conjunction,
}

/// Why a view was rejected for a probabilistic TP-rewriting (diagnostics
/// surfaced by the harness).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TpReject {
    /// `k > |mb(q)|` or label mismatch at depth `k`: no compensation.
    NoCompensation,
    /// `comp(v, q_(k)) ≢ q`: no deterministic rewriting (Fact 1 fails).
    NotEquivalent,
    /// `v′ ̸⊥ q″` (Prop. 3 fails — Example 11's phenomenon).
    NotCIndependent,
    /// Unrestricted and some of the first `u − 1` last-token nodes carry
    /// predicates (Thm. 2 fails — Example 12's phenomenon).
    PrefixSuffixPredicates,
}

/// Checks one view; returns the accepted rewriting or the rejection reason.
pub fn try_view(
    q: &TreePattern,
    views: &[View],
    view_index: usize,
) -> Result<TpRewriting, TpReject> {
    let v = &views[view_index].pattern;
    let k = v.mb_len();
    if k > q.mb_len() {
        return Err(TpReject::NoCompensation);
    }
    let compensation = q.suffix(k);
    if compensation.label(compensation.root()) != v.output_label() {
        return Err(TpReject::NoCompensation);
    }
    // Fact 1: comp(v, q_(k)) ≡ q.
    let unfolded = comp(v, &compensation);
    if !equivalent(&unfolded, q) {
        return Err(TpReject::NotEquivalent);
    }
    // Prop. 3: v′ ⊥ q″.
    let v_prime = v.strip_output_predicates();
    let q_dprime = q.prefix(k).only_output_predicates();
    if !c_independent(&v_prime, &q_dprime) {
        return Err(TpReject::NotCIndependent);
    }
    let restricted = !v.mb_has_descendant_edge() || !compensation.mb_has_descendant_edge();
    let t = v.last_token();
    let u = max_prefix_suffix(&t.mb_labels(1, t.mb_len()));
    if !restricted {
        // Thm. 2 condition 2: first u−1 last-token nodes predicate-free.
        let mb = t.main_branch();
        for &node in mb.iter().take(u.saturating_sub(1)) {
            if t.has_predicates(node) {
                return Err(TpReject::PrefixSuffixPredicates);
            }
        }
    }
    Ok(TpRewriting {
        view_index,
        k,
        pinned: Conjunction::marked(&compensation),
        compensation,
        restricted,
        u,
    })
}

/// **TPrewrite** (Figure 6): all views of `V` admitting a probabilistic
/// TP-rewriting of `q`, with the corresponding plan descriptors. Sound and
/// complete, PTime (Prop. 4).
pub fn tp_rewrite(q: &TreePattern, views: &[View]) -> Vec<TpRewriting> {
    (0..views.len())
        .filter_map(|i| try_view(q, views, i).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_tpq::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    fn vs(defs: &[&str]) -> Vec<View> {
        defs.iter()
            .enumerate()
            .map(|(i, s)| View::new(format!("v{i}"), p(s)))
            .collect()
    }

    #[test]
    fn running_example_accepts_v1bon() {
        // comp(v1BON, bonus[laptop]) ≡ qRBON; restricted (compensation /-only).
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let views = vs(&["IT-personnel//person[name/Rick]/bonus"]);
        let rs = tp_rewrite(&q, &views);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].restricted);
        assert_eq!(rs[0].k, 3);
        assert_eq!(
            rs[0].compensation.canonical_key(),
            p("bonus[laptop]").canonical_key()
        );
    }

    #[test]
    fn example_13_qbon_over_v2bon() {
        let q = p("IT-personnel//person/bonus[laptop]");
        let views = vs(&["IT-personnel//person/bonus"]);
        let rs = tp_rewrite(&q, &views);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].restricted);
    }

    #[test]
    fn example_11_rejected_for_c_dependence() {
        // q = a/b[c], v = a[.//c]/b: deterministic rewriting exists, but no
        // probabilistic one.
        let q = p("a/b[c]");
        let views = vs(&["a[.//c]/b"]);
        assert_eq!(
            try_view(&q, &views, 0).err(),
            Some(TpReject::NotCIndependent)
        );
        assert!(tp_rewrite(&q, &views).is_empty());
        // The deterministic rewriting does exist (Fact 1).
        let unf = comp(&views[0].pattern, &q.suffix(2));
        assert!(equivalent(&unf, &q));
    }

    #[test]
    fn example_12_rejected_for_prefix_suffix_predicates() {
        // q = a//b[e]/c/b/c//d, v = a//b[e]/c/b/c: u = 2 and the first
        // token node (b) has predicate [e].
        let q = p("a//b[e]/c/b/c//d");
        let views = vs(&["a//b[e]/c/b/c"]);
        assert_eq!(
            try_view(&q, &views, 0).err(),
            Some(TpReject::PrefixSuffixPredicates)
        );
    }

    #[test]
    fn example_12_variant_without_token_predicates_accepted() {
        // Moving the [e] predicate off the prefix-suffix zone: v = a//b/c/b/c[e]
        // (predicates on the last token node are fine).
        let q = p("a//b/c/b/c[e]//d");
        let views = vs(&["a//b/c/b/c[e]"]);
        let rs = tp_rewrite(&q, &views);
        assert_eq!(rs.len(), 1);
        assert!(!rs[0].restricted);
        assert_eq!(rs[0].u, 2);
    }

    #[test]
    fn corollary_1_view_must_match_q_prime() {
        // v must satisfy v′ ≡ q′: a view with an extra predicate above k
        // that q lacks fails the equivalence.
        let q = p("a/b/c[d]");
        let views = vs(&["a/b[x]/c"]);
        assert_eq!(try_view(&q, &views, 0).err(), Some(TpReject::NotEquivalent));
    }

    #[test]
    fn no_compensation_cases() {
        let q = p("a/b");
        // View longer than the query.
        let views = vs(&["a/b/c"]);
        assert_eq!(
            try_view(&q, &views, 0).err(),
            Some(TpReject::NoCompensation)
        );
        // Label mismatch at depth k.
        let views2 = vs(&["a/x"]);
        assert_eq!(
            try_view(&q, &views2, 0).err(),
            Some(TpReject::NoCompensation)
        );
    }

    #[test]
    fn multiple_views_filtered() {
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let views = vs(&[
            "IT-personnel//person[name/Rick]/bonus",         // OK
            "IT-personnel//person/bonus",                    // not equivalent (misses Rick)
            "IT-personnel//person[name/Rick]/bonus[laptop]", // OK (k = |mb(q)|)
        ]);
        let rs = tp_rewrite(&q, &views);
        let idx: Vec<usize> = rs.iter().map(|r| r.view_index).collect();
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn identity_rewriting() {
        // v = q: compensation is the trivial output-node pattern.
        let q = p("a//b[c]/d");
        let views = vs(&["a//b[c]/d"]);
        let rs = tp_rewrite(&q, &views);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].compensation.len(), 1);
        assert!(rs[0].restricted); // compensation mb has no //-edge
    }

    #[test]
    fn unrestricted_with_trivial_prefix_suffix_accepted() {
        // u = 0: token labels (b, c) have no prefix-suffix; both mb(v) and
        // compensation have //-edges.
        let q = p("a//b[e]/c//d");
        let views = vs(&["a//b[e]/c"]);
        let rs = tp_rewrite(&q, &views);
        assert_eq!(rs.len(), 1);
        assert!(!rs[0].restricted);
        assert_eq!(rs[0].u, 0);
    }
}
