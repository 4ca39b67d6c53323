//! Tree-pattern queries (Definition 2).
//!
//! A tree pattern is an unordered, unranked rooted tree over labels with
//! `/` (child) and `//` (descendant) edges and a distinguished *output*
//! node. The *main branch* is the path from the root to the output node;
//! everything hanging off it is a predicate. This module provides the
//! structural toolkit the paper's algorithms are built from: prefixes,
//! suffixes, tokens, the `v′`/`q′`/`q″` derivations of §4, and the maximal
//! prefix-suffix of a token (§4.4).

use pxv_pxml::Label;
use std::fmt;

/// The most nodes a parsed or served pattern may have. The probability DP
/// keeps two event bits per query node in a 128-bit state — 64 nodes —
/// and pinning an answer to a target node takes one of them.
pub const MAX_PATTERN_NODES: usize = 63;

/// Identifier of a query node within one [`TreePattern`] (arena index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct QNodeId(pub u32);

/// Edge type from a node's parent: `/` or `//`.
///
/// `Descendant` is *proper* descendant (path of length ≥ 1), following the
/// fragment of Miklau & Suciu the paper builds on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Axis {
    /// `/`-edge: image must be a child of the parent's image.
    Child,
    /// `//`-edge: image must be a proper descendant of the parent's image.
    Descendant,
}

impl Axis {
    /// XPath rendering of the axis.
    pub fn as_str(self) -> &'static str {
        match self {
            Axis::Child => "/",
            Axis::Descendant => "//",
        }
    }
}

#[derive(Clone, Debug)]
struct QNode {
    label: Label,
    /// Edge from the parent; `Child` (by convention) for the root.
    axis: Axis,
    parent: Option<QNodeId>,
    children: Vec<QNodeId>,
}

/// A tree-pattern query (Definition 2). Immutable-ish arena tree; all
/// structural operations return new patterns.
#[derive(Clone, Debug)]
pub struct TreePattern {
    nodes: Vec<QNode>,
    output: QNodeId,
}

impl TreePattern {
    /// A single-node pattern; the root is also the output.
    pub fn leaf(label: Label) -> TreePattern {
        TreePattern {
            nodes: vec![QNode {
                label,
                axis: Axis::Child,
                parent: None,
                children: Vec::new(),
            }],
            output: QNodeId(0),
        }
    }

    /// The root node (always `QNodeId(0)`).
    pub fn root(&self) -> QNodeId {
        QNodeId(0)
    }

    /// The output node `out(q)`.
    pub fn output(&self) -> QNodeId {
        self.output
    }

    /// Marks `n` as the output node. The main branch changes accordingly
    /// (what used to follow `n` becomes predicates).
    pub fn set_output(&mut self, n: QNodeId) {
        assert!((n.0 as usize) < self.nodes.len(), "unknown node {n:?}");
        self.output = n;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the pattern is a single node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Adds a child to `parent` and returns its id.
    pub fn add_child(&mut self, parent: QNodeId, axis: Axis, label: Label) -> QNodeId {
        assert!((parent.0 as usize) < self.nodes.len(), "unknown parent");
        let id = QNodeId(u32::try_from(self.nodes.len()).expect("pattern too large"));
        self.nodes.push(QNode {
            label,
            axis,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Label of node `n`.
    pub fn label(&self, n: QNodeId) -> Label {
        self.nodes[n.0 as usize].label
    }

    /// Label of the output node, the paper's `lbl(q)`.
    pub fn output_label(&self) -> Label {
        self.label(self.output)
    }

    /// Axis of the edge from `n`'s parent (meaningless for the root).
    pub fn axis(&self, n: QNodeId) -> Axis {
        self.nodes[n.0 as usize].axis
    }

    /// Parent of `n`.
    pub fn parent(&self, n: QNodeId) -> Option<QNodeId> {
        self.nodes[n.0 as usize].parent
    }

    /// Children of `n`.
    pub fn children(&self, n: QNodeId) -> &[QNodeId] {
        &self.nodes[n.0 as usize].children
    }

    /// All node ids in arena order (root first).
    pub fn node_ids(&self) -> impl Iterator<Item = QNodeId> {
        (0..self.nodes.len() as u32).map(QNodeId)
    }

    /// Post-order traversal (children before parents).
    pub fn postorder(&self) -> Vec<QNodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root(), false)];
        while let Some((n, visited)) = stack.pop() {
            if visited {
                order.push(n);
            } else {
                stack.push((n, true));
                for &c in self.children(n) {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// The main branch `mb(q)`: node path from root to output, inclusive.
    pub fn main_branch(&self) -> Vec<QNodeId> {
        let mut path = vec![self.output];
        let mut cur = self.output;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// `|mb(q)|`, the paper's `k` for views.
    pub fn mb_len(&self) -> usize {
        self.main_branch().len()
    }

    /// 1-based depth of a main-branch node (`root` ↦ 1, `out` ↦ `|mb|`);
    /// `None` if `n` is not on the main branch.
    pub fn mb_depth(&self, n: QNodeId) -> Option<usize> {
        self.main_branch()
            .iter()
            .position(|&m| m == n)
            .map(|i| i + 1)
    }

    /// Whether `n` lies on the main branch.
    pub fn on_main_branch(&self, n: QNodeId) -> bool {
        self.mb_depth(n).is_some()
    }

    /// The children of main-branch node `n` that start predicate (side)
    /// branches, i.e. all children except the next main-branch node.
    pub fn predicate_children(&self, n: QNodeId) -> Vec<QNodeId> {
        let mb = self.main_branch();
        let pos = mb.iter().position(|&m| m == n);
        let next = pos.and_then(|i| mb.get(i + 1)).copied();
        self.children(n)
            .iter()
            .copied()
            .filter(|&c| Some(c) != next)
            .collect()
    }

    /// True iff main-branch node `n` has at least one predicate.
    pub fn has_predicates(&self, n: QNodeId) -> bool {
        !self.predicate_children(n).is_empty()
    }

    /// The 0-based main-branch index of the shallowest main-branch node
    /// carrying a predicate; `mb_len() - 1` (the output) when no node
    /// does. Every predicate witness of an embedding lives inside the
    /// subtree of the image of this node (or deeper), which is what lets
    /// the update path localize an edit's effect on view extensions: an
    /// embedding selecting `n` maps main-branch nodes to ancestors of `n`
    /// at document depth ≥ their index, so all witnesses sit under `n`'s
    /// ancestor at this depth (see `pxv-rewrite`'s delta maintenance).
    pub fn first_predicate_depth(&self) -> usize {
        let mb = self.main_branch();
        mb.iter()
            .position(|&n| self.has_predicates(n))
            .unwrap_or(mb.len() - 1)
    }

    /// Copies the subtree of `src` rooted at `src_node` under `dst_parent`
    /// (with `axis` on the top edge), returning the id of the copy's root.
    pub fn graft_subtree(
        &mut self,
        dst_parent: QNodeId,
        axis: Axis,
        src: &TreePattern,
        src_node: QNodeId,
    ) -> QNodeId {
        let top = self.add_child(dst_parent, axis, src.label(src_node));
        let mut stack = vec![(src_node, top)];
        while let Some((s, d)) = stack.pop() {
            for &c in src.children(s) {
                let dc = self.add_child(d, src.axis(c), src.label(c));
                stack.push((c, dc));
            }
        }
        top
    }

    /// The subpattern rooted at `n` (a Boolean-ish pattern whose output is
    /// its root unless `n` is a main-branch ancestor of the output, in
    /// which case the output is preserved).
    pub fn subpattern(&self, n: QNodeId) -> TreePattern {
        let mut out = TreePattern::leaf(self.label(n));
        let mut map = vec![QNodeId(u32::MAX); self.nodes.len()];
        map[n.0 as usize] = out.root();
        let mut stack = vec![n];
        while let Some(s) = stack.pop() {
            let d = map[s.0 as usize];
            for &c in self.children(s) {
                let dc = out.add_child(d, self.axis(c), self.label(c));
                map[c.0 as usize] = dc;
                stack.push(c);
            }
        }
        let out_id = map[self.output.0 as usize];
        if out_id != QNodeId(u32::MAX) {
            out.set_output(out_id);
        }
        out
    }

    /// The prefix `q(y)`: same tree, output moved to the main-branch node
    /// of depth `y` (1-based). Panics if `y` is out of range.
    pub fn prefix(&self, y: usize) -> TreePattern {
        let mb = self.main_branch();
        assert!(y >= 1 && y <= mb.len(), "prefix depth out of range");
        let mut q = self.clone();
        q.set_output(mb[y - 1]);
        q
    }

    /// The suffix `q_(y)`: the subtree rooted at the main-branch node of
    /// depth `y`, keeping the original output.
    pub fn suffix(&self, y: usize) -> TreePattern {
        let mb = self.main_branch();
        assert!(y >= 1 && y <= mb.len(), "suffix depth out of range");
        self.subpattern(mb[y - 1])
    }

    /// `mb(q)` as a linear pattern (no predicates).
    pub fn main_branch_only(&self) -> TreePattern {
        let mb = self.main_branch();
        let mut q = TreePattern::leaf(self.label(mb[0]));
        let mut prev = q.root();
        for &n in &mb[1..] {
            prev = q.add_child(prev, self.axis(n), self.label(n));
        }
        q.set_output(prev);
        q
    }

    /// Removes all predicate subtrees of the output node: the paper's `v′`
    /// (for a view `v`) and, applied to `q(k)`, the `q′` of §4.
    pub fn strip_output_predicates(&self) -> TreePattern {
        self.filter_predicates(|n, _| n != self.output)
    }

    /// Keeps only the predicates of the output node: the paper's
    /// `q″ = comp(mb(q(k)), (q(k))_(k))`.
    pub fn only_output_predicates(&self) -> TreePattern {
        self.filter_predicates(|n, _| n == self.output)
    }

    /// Rebuilds the pattern keeping a predicate subtree rooted at child `c`
    /// of main-branch node `n` only when `keep(n, c)` returns true.
    pub fn filter_predicates<F: Fn(QNodeId, QNodeId) -> bool>(&self, keep: F) -> TreePattern {
        let mb = self.main_branch();
        let mut q = TreePattern::leaf(self.label(mb[0]));
        let mut prev = q.root();
        for (i, &n) in mb.iter().enumerate() {
            if i > 0 {
                prev = q.add_child(prev, self.axis(n), self.label(n));
            }
            for c in self.predicate_children(n) {
                if keep(n, c) {
                    q.graft_subtree(prev, self.axis(c), self, c);
                }
            }
        }
        q.set_output(prev);
        q
    }

    /// Token boundaries: the main branch split at `//`-edges. Returns
    /// 1-based inclusive depth ranges, in order. A query is
    /// `t1 // t2 // … // tx` (§4).
    pub fn token_ranges(&self) -> Vec<(usize, usize)> {
        let mb = self.main_branch();
        let mut ranges = Vec::new();
        let mut start = 1usize;
        for (i, &n) in mb.iter().enumerate().skip(1) {
            if self.axis(n) == Axis::Descendant {
                ranges.push((start, i));
                start = i + 1;
            }
        }
        ranges.push((start, mb.len()));
        ranges
    }

    /// The last token of the query, as a pattern (the suffix starting at
    /// the last `//`-edge of the main branch).
    pub fn last_token(&self) -> TreePattern {
        let (start, _) = *self.token_ranges().last().expect("at least one token");
        self.suffix(start)
    }

    /// Label sequence of the main branch between depths `[from, to]`.
    pub fn mb_labels(&self, from: usize, to: usize) -> Vec<Label> {
        let mb = self.main_branch();
        mb[from - 1..to].iter().map(|&n| self.label(n)).collect()
    }

    /// Whether the main branch contains a `//`-edge.
    pub fn mb_has_descendant_edge(&self) -> bool {
        self.main_branch()
            .iter()
            .skip(1)
            .any(|&n| self.axis(n) == Axis::Descendant)
    }

    /// Canonical structural key: equal keys ⇔ isomorphic patterns
    /// (respecting labels, axes and the output position). This is *not*
    /// query equivalence (use [`crate::containment::equivalent`]), but for
    /// minimized patterns equivalence coincides with isomorphism \[27\].
    pub fn canonical_key(&self) -> String {
        fn rec(q: &TreePattern, n: QNodeId, out: &mut String) {
            out.push_str(q.axis(n).as_str());
            out.push_str(q.label(n).name());
            if n == q.output() {
                out.push('!');
            }
            let mut kids: Vec<String> = q
                .children(n)
                .iter()
                .map(|&c| {
                    let mut s = String::new();
                    rec(q, c, &mut s);
                    s
                })
                .collect();
            kids.sort();
            if !kids.is_empty() {
                out.push('(');
                for k in kids {
                    out.push_str(&k);
                }
                out.push(')');
            }
        }
        let mut s = String::new();
        rec(self, self.root(), &mut s);
        s
    }
}

/// The maximal prefix-suffix length `u` of a label sequence: the largest
/// `u` with `0 ≤ 2u ≤ m` such that the first `u` labels equal the last `u`
/// labels (§4.4, Example 14: `(b,c,b,c)` has `u = 2`).
pub fn max_prefix_suffix(labels: &[Label]) -> usize {
    let m = labels.len();
    let mut best = 0;
    for u in 1..=(m / 2) {
        if labels[..u] == labels[m - u..] {
            best = u;
        }
    }
    best
}

impl fmt::Display for TreePattern {
    /// XPath-ish notation that re-parses (via [`crate::parse`]) to a
    /// pattern with the same [`TreePattern::canonical_key`] — labels that
    /// are not plain identifier tokens render single-quoted. The round
    /// trip is load-bearing for the wire protocol of the serving layer
    /// and is property-tested (`parse(display(q)) ≡ q`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn label(q: &TreePattern, n: QNodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&pxv_pxml::text::quote_label(q.label(n).name()))
        }
        fn pred(q: &TreePattern, n: QNodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            // Render a predicate subtree rooted at n (axis printed by caller).
            label(q, n, f)?;
            let kids = q.children(n);
            // Single child chains render inline: name/Rick, x//y.
            if kids.len() == 1 {
                let c = kids[0];
                write!(f, "{}", q.axis(c).as_str())?;
                return pred(q, c, f);
            }
            for &c in kids {
                f.write_str("[")?;
                if q.axis(c) == Axis::Descendant {
                    f.write_str(".//")?;
                }
                pred(q, c, f)?;
                f.write_str("]")?;
            }
            Ok(())
        }
        let mb = self.main_branch();
        for (i, &n) in mb.iter().enumerate() {
            if i > 0 {
                f.write_str(self.axis(n).as_str())?;
            }
            label(self, n, f)?;
            for c in self.predicate_children(n) {
                f.write_str("[")?;
                if self.axis(c) == Axis::Descendant {
                    f.write_str(".//")?;
                }
                pred(self, c, f)?;
                f.write_str("]")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).expect("test pattern parses")
    }

    #[test]
    fn main_branch_and_depth() {
        let q = p("a//b[c]/d[e][f]");
        let mb = q.main_branch();
        assert_eq!(mb.len(), 3);
        assert_eq!(q.label(mb[0]).name(), "a");
        assert_eq!(q.label(mb[2]).name(), "d");
        assert_eq!(q.mb_depth(q.output()), Some(3));
        assert_eq!(q.output_label().name(), "d");
    }

    #[test]
    fn predicate_children_excludes_mb() {
        let q = p("a/b[c][d]/e");
        let mb = q.main_branch();
        let preds = q.predicate_children(mb[1]);
        assert_eq!(preds.len(), 2);
        assert!(q.has_predicates(mb[1]));
        assert!(!q.has_predicates(mb[0]));
    }

    #[test]
    fn prefix_moves_output_up() {
        // Example 9: prefix of qRBON with 2 mb nodes.
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let q2 = q.prefix(2);
        assert_eq!(q2.mb_len(), 2);
        assert_eq!(q2.output_label().name(), "person");
        // The bonus branch is now a predicate of person.
        let out = q2.output();
        assert_eq!(q2.predicate_children(out).len(), 2);
    }

    #[test]
    fn suffix_extracts_subtree() {
        // Example 9: suffix of qRBON at depth 2 = person[name/Rick]/bonus[laptop].
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let s = q.suffix(2);
        assert_eq!(s.mb_len(), 2);
        assert_eq!(s.label(s.root()).name(), "person");
        assert_eq!(s.output_label().name(), "bonus");
        assert_eq!(
            s.canonical_key(),
            p("person[name/Rick]/bonus[laptop]").canonical_key()
        );
    }

    #[test]
    fn tokens_split_at_descendant_edges() {
        // Example 9: qRBON = t1 // t2.
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        assert_eq!(q.token_ranges(), vec![(1, 1), (2, 3)]);
        let lt = q.last_token();
        assert_eq!(
            lt.canonical_key(),
            p("person[name/Rick]/bonus[laptop]").canonical_key()
        );
    }

    #[test]
    fn strip_and_keep_output_predicates() {
        // Example 10 over qRBON (k = 3): q' and q''.
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let qp = q.strip_output_predicates();
        assert_eq!(
            qp.canonical_key(),
            p("IT-personnel//person[name/Rick]/bonus").canonical_key()
        );
        let qpp = q.only_output_predicates();
        assert_eq!(
            qpp.canonical_key(),
            p("IT-personnel//person/bonus[laptop]").canonical_key()
        );
    }

    #[test]
    fn max_prefix_suffix_of_example_14() {
        // b[e]/c/b/c: labels (b,c,b,c) => u = 2.
        let v = p("a//b[e]/c/b/c");
        let lt = v.last_token();
        let labels = lt.mb_labels(1, lt.mb_len());
        assert_eq!(max_prefix_suffix(&labels), 2);
    }

    #[test]
    fn max_prefix_suffix_edge_cases() {
        let l = |s: &str| pxv_pxml::Label::new(s);
        assert_eq!(max_prefix_suffix(&[l("a")]), 0);
        assert_eq!(max_prefix_suffix(&[l("a"), l("a")]), 1);
        assert_eq!(max_prefix_suffix(&[l("a"), l("b")]), 0);
        assert_eq!(max_prefix_suffix(&[l("a"), l("b"), l("a")]), 1);
        assert_eq!(max_prefix_suffix(&[l("a"), l("b"), l("a"), l("b")]), 2);
        assert_eq!(max_prefix_suffix(&[]), 0);
    }

    #[test]
    fn main_branch_only_is_linear() {
        let q = p("a//b[c][d/e]/f[g]");
        let m = q.main_branch_only();
        assert_eq!(m.len(), 3);
        assert_eq!(m.canonical_key(), p("a//b/f").canonical_key());
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "a",
            "a/b",
            "a//b",
            "a/b[c]/d",
            "a[.//c]/b",
            "IT-personnel//person[name/Rick]/bonus[laptop]",
            "a[b[c][d]]/e//f[g//h]",
        ] {
            let q = p(s);
            let q2 = p(&q.to_string());
            assert_eq!(q.canonical_key(), q2.canonical_key(), "round trip of {s}");
        }
    }

    #[test]
    fn canonical_key_ignores_child_order() {
        let q1 = p("a[b][c]/d");
        let q2 = p("a[c][b]/d");
        assert_eq!(q1.canonical_key(), q2.canonical_key());
        // But output position matters.
        let q3 = p("a[b][c]/d").prefix(1);
        assert_ne!(q1.canonical_key(), q3.canonical_key());
    }

    #[test]
    fn mb_has_descendant_edge_detection() {
        assert!(p("a//b/c").mb_has_descendant_edge());
        assert!(!p("a/b[.//x]/c").mb_has_descendant_edge());
    }
}
