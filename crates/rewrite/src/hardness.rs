//! The Theorem 4 reduction: k-DIMENSIONAL PERFECT MATCHING ↪ selecting
//! pairwise c-independent views for a TP∩-rewriting.
//!
//! For a k-hypergraph `H = (U, E)` with `|U| = s`, the query is
//! `q = a[p1]/a[p2]/…/a[ps]//b` and each hyperedge `e` yields the view
//! with predicates `[pi]` exactly at the positions `i ∈ e`. Views are
//! c-independent iff their edges are disjoint; an intersection of views is
//! equivalent to `q` iff their edges cover `U`; hence a c-independent
//! rewriting subset exists iff `H` has a perfect matching.

use crate::tpi_rewrite::find_c_independent_cover;
use pxv_pxml::Label;
use pxv_tpq::pattern::{Axis, TreePattern};

/// Vertex predicate label `p{i}` (1-based).
fn vertex_label(i: usize) -> Label {
    Label::new(&format!("p{i}"))
}

/// Builds the chain `a/a/…/a//b` (`s` a-nodes) with vertex predicates at
/// the 1-based positions in `marks`.
pub fn gadget_pattern(s: usize, marks: &[usize]) -> TreePattern {
    let a = Label::new("a");
    let mut q = TreePattern::leaf(a);
    let mut cur = q.root();
    let mut mb = vec![cur];
    for _ in 1..s {
        cur = q.add_child(cur, Axis::Child, a);
        mb.push(cur);
    }
    let out = q.add_child(cur, Axis::Descendant, Label::new("b"));
    q.set_output(out);
    for &i in marks {
        assert!((1..=s).contains(&i), "vertex index out of range");
        q.add_child(mb[i - 1], Axis::Child, vertex_label(i));
    }
    q
}

/// The Theorem 4 instance: query with all `s` predicates, one view per
/// hyperedge.
pub fn hypergraph_instance(s: usize, edges: &[Vec<usize>]) -> (TreePattern, Vec<TreePattern>) {
    let all: Vec<usize> = (1..=s).collect();
    let q = gadget_pattern(s, &all);
    let views = edges.iter().map(|e| gadget_pattern(s, e)).collect();
    (q, views)
}

/// Decides perfect matching through the rewriting machinery (the forward
/// direction of the reduction, exercised in experiment E12).
pub fn matching_via_rewriting(s: usize, edges: &[Vec<usize>]) -> bool {
    let (q, views) = hypergraph_instance(s, edges);
    find_c_independent_cover(&q, &views, 10_000).is_some()
}

/// Direct combinatorial perfect-matching check (exponential backtracking),
/// used to cross-validate the reduction.
pub fn matching_direct(s: usize, edges: &[Vec<usize>]) -> bool {
    fn rec(s: usize, edges: &[Vec<usize>], covered: u64, idx: usize) -> bool {
        if covered == (1u64 << s) - 1 {
            return true;
        }
        if idx >= edges.len() {
            return false;
        }
        // Skip edge idx.
        if rec(s, edges, covered, idx + 1) {
            return true;
        }
        // Take edge idx if disjoint from covered.
        let mask: u64 = edges[idx].iter().map(|&i| 1u64 << (i - 1)).sum();
        if covered & mask == 0 && rec(s, edges, covered | mask, idx + 1) {
            return true;
        }
        false
    }
    rec(s, edges, 0, 0)
}

/// Random k-uniform hypergraph over `s` vertices with `m` edges.
pub fn random_hypergraph<R: rand::Rng + ?Sized>(
    s: usize,
    k: usize,
    m: usize,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let mut verts: Vec<usize> = (1..=s).collect();
        let mut e = Vec::with_capacity(k);
        for _ in 0..k.min(s) {
            let i = rng.gen_range(0..verts.len());
            e.push(verts.swap_remove(i));
        }
        e.sort_unstable();
        edges.push(e);
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_positive_instance() {
        // U = {1..4}, edges {1,2}, {3,4}: perfect matching exists.
        let edges = vec![vec![1, 2], vec![3, 4], vec![2, 3]];
        assert!(matching_direct(4, &edges));
        assert!(matching_via_rewriting(4, &edges));
    }

    #[test]
    fn reduction_negative_instance() {
        // Edges {1,2}, {2,3}: vertex coverage of {1,2,3} needs overlap.
        let edges = vec![vec![1, 2], vec![2, 3]];
        assert!(!matching_direct(3, &edges));
        assert!(!matching_via_rewriting(3, &edges));
    }

    #[test]
    fn reduction_agrees_with_direct_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let edges = random_hypergraph(4, 2, 4, &mut rng);
            assert_eq!(
                matching_direct(4, &edges),
                matching_via_rewriting(4, &edges),
                "edges: {edges:?}"
            );
        }
    }

    #[test]
    fn gadget_patterns_shape() {
        let q = gadget_pattern(3, &[1, 3]);
        assert_eq!(q.to_string(), "a[p1]/a/a[p3]//b");
        assert_eq!(q.mb_len(), 4);
    }
}
