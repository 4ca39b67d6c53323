//! Deterministic XML documents.
//!
//! A document is an unranked, unordered, rooted, labeled tree (§2 of the
//! paper). Every node carries a persistent [`NodeId`]: possible worlds of a
//! p-document and view extensions keep the identifiers of the original
//! p-document, which is what makes intersection-based (TP∩) rewritings
//! meaningful under the persistent-Id semantics.

use crate::label::Label;
use std::collections::HashMap;
use std::fmt;

/// Persistent node identifier.
///
/// Identifiers survive the possible-world sampling process and view
/// materialization: a node of a random document `P ∈ ⟦P̂⟧` has the same id as
/// the p-document node it originates from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct DocNode {
    label: Label,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// An unranked, unordered, rooted, labeled tree with persistent node ids.
#[derive(Clone, Debug)]
pub struct Document {
    root: NodeId,
    nodes: HashMap<NodeId, DocNode>,
    next_id: u32,
}

impl Document {
    /// Creates a document consisting of a single root labeled `label`, with
    /// the given root id.
    pub fn with_root_id(label: Label, root: NodeId) -> Document {
        let mut nodes = HashMap::new();
        nodes.insert(
            root,
            DocNode {
                label,
                parent: None,
                children: Vec::new(),
            },
        );
        Document {
            root,
            nodes,
            next_id: root.0 + 1,
        }
    }

    /// Creates a document with a fresh root id `n0`.
    pub fn new(label: Label) -> Document {
        Document::with_root_id(label, NodeId(0))
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The document name, i.e. the label of the root (§2).
    pub fn name(&self) -> Label {
        self.label(self.root)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the document has exactly its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Whether `n` is a node of this document.
    pub fn contains(&self, n: NodeId) -> bool {
        self.nodes.contains_key(&n)
    }

    /// The label of `n`. Panics if `n` is not a node of this document.
    pub fn label(&self, n: NodeId) -> Label {
        self.nodes[&n].label
    }

    /// The parent of `n`, or `None` for the root.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[&n].parent
    }

    /// The children of `n`.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[&n].children
    }

    /// Adds a fresh child labeled `label` under `parent`, returning its id.
    pub fn add_child(&mut self, parent: NodeId, label: Label) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.add_child_with_id(parent, label, id);
        id
    }

    /// Adds a child with an explicit id (used to reproduce the paper's
    /// figures, whose node ids are part of the narrative). Panics if the id
    /// is already in use.
    pub fn add_child_with_id(&mut self, parent: NodeId, label: Label, id: NodeId) {
        assert!(
            !self.nodes.contains_key(&id),
            "duplicate node id {id} in document"
        );
        assert!(self.nodes.contains_key(&parent), "unknown parent {parent}");
        self.nodes.insert(
            id,
            DocNode {
                label,
                parent: Some(parent),
                children: Vec::new(),
            },
        );
        self.nodes
            .get_mut(&parent)
            .expect("parent checked above")
            .children
            .push(id);
        self.next_id = self.next_id.max(id.0 + 1);
    }

    /// Iterates over all node ids (unspecified order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Pre-order traversal from the root.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n).iter().copied());
        }
        out
    }

    /// Post-order traversal (children before parents).
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut pre = self.preorder();
        pre.reverse();
        pre
    }

    /// The subdocument `d_n` rooted at `n` (§2), preserving node ids.
    pub fn subtree(&self, n: NodeId) -> Document {
        let mut doc = Document::with_root_id(self.label(n), n);
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            for &c in self.children(m) {
                doc.add_child_with_id(m, self.label(c), c);
                stack.push(c);
            }
        }
        doc.next_id = self.next_id;
        doc
    }

    /// True iff `anc` is a (non-strict) ancestor of `n`.
    pub fn is_ancestor_or_self(&self, anc: NodeId, n: NodeId) -> bool {
        let mut cur = Some(n);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// The path from the root to `n`, inclusive.
    pub fn root_path(&self, n: NodeId) -> Vec<NodeId> {
        let mut path = vec![n];
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Depth of `n`: the root has depth 1 (the paper counts main-branch
    /// depth from 1).
    pub fn depth(&self, n: NodeId) -> usize {
        self.root_path(n).len()
    }

    /// A canonical key identifying this document by its node-id set
    /// (possible worlds of the same p-document are equal iff their node sets
    /// are equal, because labels and edges are inherited).
    pub fn id_set_key(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Next id that `add_child` would allocate; useful for callers that mix
    /// fresh and explicit ids.
    pub fn next_fresh_id(&self) -> NodeId {
        NodeId(self.next_id)
    }

    /// Reserve ids below `bound` (so `add_child` allocates above it).
    pub fn reserve_ids_below(&mut self, bound: u32) {
        self.next_id = self.next_id.max(bound);
    }

    /// Structural equality ignoring ids and child order: used by tests.
    pub fn structurally_equal(&self, other: &Document) -> bool {
        fn canon(d: &Document, n: NodeId) -> String {
            let mut kids: Vec<String> = d.children(n).iter().map(|&c| canon(d, c)).collect();
            kids.sort();
            format!("{}({})", d.label(n), kids.join(","))
        }
        canon(self, self.root) == canon(other, other.root)
    }
}

impl fmt::Display for Document {
    /// Compact textual form `label#id[child, child]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(d: &Document, n: NodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}#{}", crate::text::quote_label(d.label(n).name()), n.0)?;
            let kids = d.children(n);
            if !kids.is_empty() {
                f.write_str("[")?;
                let mut sorted = kids.to_vec();
                sorted.sort_unstable();
                for (i, &c) in sorted.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    rec(d, c, f)?;
                }
                f.write_str("]")?;
            }
            Ok(())
        }
        rec(self, self.root, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    #[test]
    fn build_and_navigate() {
        let mut d = Document::new(l("a"));
        let b = d.add_child(d.root(), l("b"));
        let c = d.add_child(b, l("c"));
        assert_eq!(d.len(), 3);
        assert_eq!(d.label(d.root()), l("a"));
        assert_eq!(d.parent(c), Some(b));
        assert_eq!(d.parent(b), Some(d.root()));
        assert_eq!(d.children(b), &[c]);
        assert_eq!(d.depth(c), 3);
        assert!(d.is_ancestor_or_self(d.root(), c));
        assert!(d.is_ancestor_or_self(c, c));
        assert!(!d.is_ancestor_or_self(c, b));
    }

    #[test]
    fn subtree_preserves_ids() {
        let mut d = Document::new(l("a"));
        let b = d.add_child(d.root(), l("b"));
        let c = d.add_child(b, l("c"));
        let sub = d.subtree(b);
        assert_eq!(sub.root(), b);
        assert_eq!(sub.len(), 2);
        assert!(sub.contains(c));
        assert!(!sub.contains(d.root()));
        assert_eq!(sub.label(c), l("c"));
    }

    #[test]
    fn root_path_orders_from_root() {
        let mut d = Document::new(l("a"));
        let b = d.add_child(d.root(), l("b"));
        let c = d.add_child(b, l("c"));
        assert_eq!(d.root_path(c), vec![d.root(), b, c]);
    }

    #[test]
    fn explicit_ids_and_duplicates() {
        let mut d = Document::with_root_id(l("a"), NodeId(1));
        d.add_child_with_id(NodeId(1), l("b"), NodeId(5));
        // fresh ids continue above the maximum explicit id
        let fresh = d.add_child(NodeId(1), l("c"));
        assert!(fresh.0 > 5);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_id_panics() {
        let mut d = Document::with_root_id(l("a"), NodeId(1));
        d.add_child_with_id(NodeId(1), l("b"), NodeId(1));
    }

    #[test]
    fn structural_equality_ignores_ids_and_order() {
        let mut d1 = Document::new(l("a"));
        let b1 = d1.add_child(d1.root(), l("b"));
        d1.add_child(d1.root(), l("c"));
        d1.add_child(b1, l("x"));

        let mut d2 = Document::with_root_id(l("a"), NodeId(100));
        d2.add_child(d2.root(), l("c"));
        let b2 = d2.add_child(d2.root(), l("b"));
        d2.add_child(b2, l("x"));

        assert!(d1.structurally_equal(&d2));
        d2.add_child(b2, l("y"));
        assert!(!d1.structurally_equal(&d2));
    }
}
