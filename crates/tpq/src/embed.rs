//! Embeddings and evaluation of tree patterns over deterministic documents.
//!
//! `q(d) = { e(out(q)) | e an embedding of q into d }` (§2). The evaluation
//! is the classic two-pass bitmask algorithm: a bottom-up pass computes, for
//! every document node, which query subpatterns match at / strictly below
//! it; a top-down pass marks the (document node, query node) pairs that
//! participate in at least one *full* embedding. Linear in `|d| · |q|` for
//! patterns of up to 64 nodes.
//!
//! There is one kernel, [`Embedder`], and it runs over one layout,
//! [`Forest`]: trees in preorder columns. A [`Document`] is laid into
//! those columns per call. A p-document's columns keep its distributional
//! slots, which the kernel reads through: each ordinary slot's children in
//! the maximal world (the ordinary nodes, each under its closest ordinary
//! ancestor) are reached across them, so candidates are found on the
//! maximal world without building it.

use crate::pattern::{Axis, QNodeId, TreePattern};
use pxv_pxml::forest::{Forest, Slot, NO_PARENT};
use pxv_pxml::{Document, Label, NodeId};

/// Per-query-node bit. Patterns are limited to 64 nodes (parsing and
/// serving stop at `pattern::MAX_PATTERN_NODES`, one fewer).
fn bit(x: QNodeId) -> u64 {
    assert!(x.0 < 64, "tree pattern too large for bitmask evaluation");
    1u64 << x.0
}

/// The embedding kernel for one pattern: its per-node labels and `/`- and
/// `//`-children masks, computed once, plus scratch reused across trees.
pub struct Embedder {
    /// Label of each query node.
    qlabel: Vec<Label>,
    /// Bits of each query node's `/`-children.
    child_req: Vec<u64>,
    /// Bits of each query node's `//`-children.
    desc_req: Vec<u64>,
    root_bit: u64,
    out_bit: u64,
    /// `at[v]` bit `x` set ⇔ subpattern `x` embeds with its root mapped
    /// exactly to slot `v`.
    at: Vec<u64>,
    /// Bottom-up: union of `at` over `v`'s children. Top-down: query nodes
    /// `v`'s children may take.
    down: Vec<u64>,
    /// Bottom-up: union of `at` over `v`'s proper descendants. Top-down:
    /// `//`-requirements pending below `v`.
    pending: Vec<u64>,
}

impl Embedder {
    /// Compiles `q`.
    pub fn new(q: &TreePattern) -> Embedder {
        let n = q.len();
        let mut child_req = vec![0u64; n];
        let mut desc_req = vec![0u64; n];
        for x in q.node_ids() {
            for &y in q.children(x) {
                match q.axis(y) {
                    Axis::Child => child_req[x.0 as usize] |= bit(y),
                    Axis::Descendant => desc_req[x.0 as usize] |= bit(y),
                }
            }
        }
        Embedder {
            qlabel: q.node_ids().map(|x| q.label(x)).collect(),
            child_req,
            desc_req,
            root_bit: bit(q.root()),
            out_bit: bit(q.output()),
            at: Vec::new(),
            down: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Bottom-up pass over tree `t` (reverse preorder): fills `at`. A
    /// distributional slot matches nothing and hands its children's
    /// masks up as they are.
    fn bottom_up(&mut self, forest: &Forest, t: usize) {
        let tree = forest.tree(t);
        let len = tree.len();
        for col in [&mut self.at, &mut self.down, &mut self.pending] {
            col.clear();
            col.resize(len, 0);
        }
        for v in (0..len).rev() {
            let (child_at, below) = (self.down[v], self.pending[v]);
            let (up_child, up_below) = if tree.kind[v] == Slot::Ordinary {
                let mut mask = 0u64;
                for (x, &l) in self.qlabel.iter().enumerate() {
                    if l == tree.label[v]
                        && self.child_req[x] & !child_at == 0
                        && self.desc_req[x] & !below == 0
                    {
                        mask |= 1 << x;
                    }
                }
                self.at[v] = mask;
                (mask, mask | below)
            } else {
                (child_at, below)
            };
            let p = tree.parent[v];
            if p != NO_PARENT {
                self.down[p as usize] |= up_child;
                self.pending[p as usize] |= up_below;
            }
        }
    }

    /// True iff `q` embeds into tree `t` (root to root).
    pub fn matches(&mut self, forest: &Forest, t: usize) -> bool {
        self.bottom_up(forest, t);
        self.at.first().is_some_and(|&a| a & self.root_bit != 0)
    }

    /// Calls `emit` with the id of every node of tree `t` that is the
    /// output image of some embedding of `q`, each once, in slot order.
    pub fn eval(&mut self, forest: &Forest, t: usize, mut emit: impl FnMut(NodeId)) {
        if !self.matches(forest, t) {
            return;
        }
        let tree = forest.tree(t);
        // Top-down (preorder): the query nodes a slot takes in a full
        // embedding are those its parent hands down that also match at it.
        // A distributional slot hands down what it was handed.
        for v in 0..tree.len() {
            let p = tree.parent[v];
            if tree.kind[v] != Slot::Ordinary {
                self.down[v] = self.down[p as usize];
                self.pending[v] = self.pending[p as usize];
                continue;
            }
            let (active, inherited) = match p {
                NO_PARENT => (self.root_bit & self.at[v], 0),
                p => (self.down[p as usize] & self.at[v], self.pending[p as usize]),
            };
            if active & self.out_bit != 0 {
                emit(tree.id[v]);
            }
            let (mut want_child, mut want_desc) = (0u64, 0u64);
            let mut a = active;
            while a != 0 {
                let x = a.trailing_zeros() as usize;
                a &= a - 1;
                want_child |= self.child_req[x];
                want_desc |= self.desc_req[x];
            }
            self.pending[v] = inherited | want_desc;
            self.down[v] = want_child | self.pending[v];
        }
    }
}

/// True iff there is an embedding of `q` into `d` (root to root).
pub fn matches(q: &TreePattern, d: &Document) -> bool {
    Embedder::new(q).matches(&Forest::of_document(d), 0)
}

/// Evaluates `q(d)`: the sorted set of output-node images over all
/// embeddings.
pub fn eval(q: &TreePattern, d: &Document) -> Vec<NodeId> {
    let mut answers = Vec::new();
    Embedder::new(q).eval(&Forest::of_document(d), 0, |n| answers.push(n));
    answers.sort_unstable();
    answers
}

/// Evaluates `q` on `d` requiring the output image to be exactly `n`.
pub fn selects(q: &TreePattern, d: &Document, n: NodeId) -> bool {
    eval(q, d).contains(&n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_pattern;
    use pxv_pxml::examples_paper::fig1_dper;
    use pxv_pxml::text::parse_document;

    fn q(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    #[test]
    fn example_5_answers_over_dper() {
        let d = fig1_dper();
        let n5 = NodeId(5);
        let n7 = NodeId(7);
        let qrbon = q("IT-personnel//person[name/Rick]/bonus[laptop]");
        let qbon = q("IT-personnel//person/bonus[laptop]");
        let v1 = q("IT-personnel//person[name/Rick]/bonus");
        let v2 = q("IT-personnel//person/bonus");
        assert_eq!(eval(&qrbon, &d), vec![n5]);
        assert_eq!(eval(&qbon, &d), vec![n5]);
        assert_eq!(eval(&v1, &d), vec![n5]);
        assert_eq!(eval(&v2, &d), vec![n5, n7]);
    }

    /// The column kernel reproduces, query for query, the answers and
    /// match verdicts of the `HashMap`-based two-pass evaluation it
    /// replaced (values recorded from that implementation).
    #[test]
    fn kernel_keeps_the_previous_answers_on_fig1_dper() {
        let d = fig1_dper();
        let cases: [(&str, &[u32], bool); 15] = [
            ("IT-personnel//person[name/Rick]/bonus[laptop]", &[5], true),
            ("IT-personnel//person/bonus[laptop]", &[5], true),
            ("IT-personnel//person[name/Rick]/bonus", &[5], true),
            ("IT-personnel//person/bonus", &[5, 7], true),
            ("IT-personnel//44", &[25, 55], true),
            ("IT-personnel/person//50", &[26, 32], true),
            ("IT-personnel//bonus//pda[44]", &[51], true),
            ("IT-personnel//person[.//44]/name", &[4, 6], true),
            ("IT-personnel//person[bonus/pda/15]//Mary", &[41], true),
            ("IT-personnel[person/name/Mary]//laptop/44", &[25], true),
            ("IT-personnel//pda/50", &[32], true),
            ("IT-personnel//person//person", &[], false),
            ("person//44", &[], false),
            ("IT-personnel", &[1], true),
            ("IT-personnel//person[name][bonus[.//50]]", &[2], true),
        ];
        for (s, want, matched) in cases {
            let got: Vec<u32> = eval(&q(s), &d).iter().map(|n| n.0).collect();
            assert_eq!(got, want, "{s}");
            assert_eq!(matches(&q(s), &d), matched, "{s}");
        }
    }

    /// One embedder serves several trees of a forest in turn; each tree
    /// is evaluated on its own, exactly as if laid out alone.
    #[test]
    fn embedder_scratch_is_reused_across_trees() {
        let docs = [
            parse_document("a#0[b#1[c#2], b#3]").unwrap(),
            parse_document("a#10[x#11[b#12[c#13]]]").unwrap(),
            parse_document("b#20[c#21]").unwrap(),
        ];
        let mut forest = Forest::default();
        for d in &docs {
            forest.push_document(d);
        }
        let pat = q("a//b[c]");
        let mut embedder = Embedder::new(&pat);
        for (t, d) in docs.iter().enumerate() {
            let mut got = Vec::new();
            embedder.eval(&forest, t, |n| got.push(n));
            got.sort_unstable();
            assert_eq!(got, eval(&pat, d), "tree {t}");
        }
    }

    /// A p-document's columns are read as its maximal world: every
    /// ordinary node under its closest ordinary ancestor, through
    /// distributional slots at any depth.
    #[test]
    fn pdocument_columns_embed_as_the_maximal_world() {
        let p = pxv_pxml::text::parse_pdocument(
            "a#0[mux#1(0.5: b#2[c#3], 0.5: ind#6(0.1: b#7[det#8(c#9)])), ind#4(0.1: d#5)]",
        )
        .unwrap();
        let forest = Forest::of_pdocument(&p, NodeId(0));
        let run = |s: &str| {
            let mut got = Vec::new();
            Embedder::new(&q(s)).eval(&forest, 0, |n| got.push(n));
            got.sort_unstable();
            got
        };
        assert_eq!(run("a/b"), vec![NodeId(2), NodeId(7)]);
        assert_eq!(run("a/b/c"), vec![NodeId(3), NodeId(9)]);
        assert_eq!(run("a/d"), vec![NodeId(5)]);
        assert_eq!(run("a[d]/b[c]"), vec![NodeId(2), NodeId(7)]);
        assert!(run("a/c").is_empty());
        assert_eq!(run("a//c"), vec![NodeId(3), NodeId(9)]);
        // A kept-set filter drops ordinary nodes but keeps their
        // descendants.
        let mut only = Forest::default();
        only.push_pdocument(&p, NodeId(0), |n| (n != NodeId(2)).then_some(n));
        let mut got = Vec::new();
        Embedder::new(&q("a/c")).eval(&only, 0, |n| got.push(n));
        assert_eq!(got, vec![NodeId(3)]);
    }

    #[test]
    fn child_vs_descendant() {
        let d = parse_document("a#0[b#1[c#2[d#3]]]").unwrap();
        assert!(matches(&q("a//d"), &d));
        assert!(!matches(&q("a/d"), &d));
        assert!(matches(&q("a/b//d"), &d));
        assert!(matches(&q("a//c/d"), &d));
        // Proper descendant: a//a does not match a lone a.
        let single = parse_document("a#0").unwrap();
        assert!(!matches(&q("a//a"), &single));
        let nested = parse_document("a#0[a#1]").unwrap();
        assert!(matches(&q("a//a"), &nested));
    }

    #[test]
    fn predicates_filter_answers() {
        let d = parse_document("r#0[x#1[ok#2], x#3]").unwrap();
        assert_eq!(eval(&q("r/x[ok]"), &d), vec![NodeId(1)]);
        assert_eq!(eval(&q("r/x"), &d), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn multiple_embeddings_union_answers() {
        let d = parse_document("a#0[b#1[c#2], b#3[b#4[c#5]]]").unwrap();
        // a//b[c] matches b1, b4 (both have c children); b3 has no c child.
        assert_eq!(eval(&q("a//b[c]"), &d), vec![NodeId(1), NodeId(4)]);
    }

    #[test]
    fn root_label_must_match() {
        let d = parse_document("a#0[b#1]").unwrap();
        assert!(!matches(&q("x/b"), &d));
        assert!(eval(&q("x/b"), &d).is_empty());
    }

    #[test]
    fn deep_predicate_with_descendant() {
        let d = parse_document("a#0[b#1, x#2[c#3]]").unwrap();
        assert!(matches(&q("a[.//c]/b"), &d));
        let d2 = parse_document("a#0[b#1, x#2]").unwrap();
        assert!(!matches(&q("a[.//c]/b"), &d2));
    }

    #[test]
    fn output_inside_repeated_structure() {
        // Two distinct b-nodes are both answers of a//b when nested.
        let d = parse_document("a#0[b#1[b#2]]").unwrap();
        assert_eq!(eval(&q("a//b"), &d), vec![NodeId(1), NodeId(2)]);
        // a//b/b selects only the inner one.
        assert_eq!(eval(&q("a//b/b"), &d), vec![NodeId(2)]);
    }

    #[test]
    fn selects_specific_node() {
        let d = fig1_dper();
        let v2 = q("IT-personnel//person/bonus");
        assert!(selects(&v2, &d, NodeId(5)));
        assert!(selects(&v2, &d, NodeId(7)));
        assert!(!selects(&v2, &d, NodeId(4)));
    }
}
