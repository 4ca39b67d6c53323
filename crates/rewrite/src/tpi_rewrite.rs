//! Virtual views — the per-node probabilities a TP∩ plan intersects — and
//! the c-independent cover search (NP-hard, Theorem 4).
//!
//! With persistent node ids, a plan intersects several view extensions:
//! `qr = doc(v1)/v1 ∩ … ∩ doc(vm)/vm`. Theorem 3's product formula for
//! pairwise c-independent views (Eq. 4/5) is a special case of Theorem 5's
//! `S(q,V)` system, which [`crate::system`] solves and applies.

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
    use pxv_tpq::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
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
