//! p-Documents: compact syntax for probability spaces of XML documents.
//!
//! A p-document (Definition 1) is a tree whose nodes are either *ordinary*
//! (labeled) or *distributional*. We implement the `mux` and `ind` node
//! kinds the paper uses throughout, plus `det` and `exp` from \[2\] (§2 notes
//! every result carries over to all four kinds; `PrXML{mux,ind}` is already
//! a complete representation system).
//!
//! Semantics (`⟦P̂⟧`): independently at each distributional node, children
//! are kept or deleted according to the node kind; deleted children drop
//! their whole subtree; surviving ordinary nodes re-attach to their closest
//! ordinary ancestor. See [`crate::worlds`] for exact enumeration and
//! [`crate::sample`] for sampling.

use crate::document::{Document, NodeId};
use crate::label::Label;
use std::collections::HashMap;
use std::fmt;

/// Kind of a p-document node.
#[derive(Clone, Debug, PartialEq)]
pub enum PKind {
    /// Ordinary labeled node (appears in random documents).
    Ordinary(Label),
    /// Mutually-exclusive choice: at most one child survives; the leftover
    /// mass `1 - Σ p_i` selects no child.
    Mux,
    /// Independent choices: each child survives independently.
    Ind,
    /// Deterministic: all children survive (probability 1 each).
    Det,
    /// Explicit distribution over subsets of children. The subsets are bit
    /// masks over the node's child list; probabilities must sum to 1.
    Exp(Vec<(u64, f64)>),
}

impl PKind {
    /// True for `Ordinary`.
    pub fn is_ordinary(&self) -> bool {
        matches!(self, PKind::Ordinary(_))
    }
}

#[derive(Clone, Debug)]
struct PNode {
    kind: PKind,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Per-child survival probability (meaningful for `Mux`/`Ind`; always 1
    /// for `Ordinary`/`Det`; ignored for `Exp`).
    probs: Vec<f64>,
}

/// A p-document (Definition 1).
#[derive(Clone, Debug)]
pub struct PDocument {
    root: NodeId,
    nodes: HashMap<NodeId, PNode>,
    next_id: u32,
}

/// Errors found by [`PDocument::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PDocError {
    /// The root must be an ordinary (labeled) node.
    RootNotOrdinary,
    /// Leaves must be ordinary nodes.
    DistributionalLeaf(NodeId),
    /// A probability was outside `[0, 1]`.
    ProbabilityOutOfRange(NodeId),
    /// A `mux` node's child probabilities exceed 1.
    MuxMassExceedsOne(NodeId),
    /// An `exp` node's subset distribution does not sum to 1, or a mask
    /// refers to a nonexistent child.
    BadExplicitDistribution(NodeId),
}

impl fmt::Display for PDocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PDocError::RootNotOrdinary => write!(f, "p-document root must be ordinary"),
            PDocError::DistributionalLeaf(n) => {
                write!(f, "distributional node {n} has no children")
            }
            PDocError::ProbabilityOutOfRange(n) => {
                write!(f, "probability out of [0,1] at node {n}")
            }
            PDocError::MuxMassExceedsOne(n) => {
                write!(f, "mux node {n} has child probabilities summing over 1")
            }
            PDocError::BadExplicitDistribution(n) => {
                write!(f, "exp node {n} has an invalid subset distribution")
            }
        }
    }
}

impl std::error::Error for PDocError {}

const PROB_EPS: f64 = 1e-9;

impl PDocument {
    /// Creates a p-document with an ordinary root labeled `label` and the
    /// given root id.
    pub fn with_root_id(label: Label, root: NodeId) -> PDocument {
        let mut nodes = HashMap::new();
        nodes.insert(
            root,
            PNode {
                kind: PKind::Ordinary(label),
                parent: None,
                children: Vec::new(),
                probs: Vec::new(),
            },
        );
        PDocument {
            root,
            nodes,
            next_id: root.0 + 1,
        }
    }

    /// Creates a p-document with root id `n0`.
    pub fn new(label: Label) -> PDocument {
        PDocument::with_root_id(label, NodeId(0))
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes (ordinary + distributional).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Deterministic estimate of this p-document's heap footprint in
    /// bytes: the node table plus every per-node child/probability list
    /// and explicit distribution. Counted from logical lengths (not
    /// allocator capacities), so two structurally equal documents report
    /// the same footprint regardless of how they were built — which is
    /// what makes byte-budget accounting reproducible across a
    /// materialize/snapshot/restore cycle.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        // One map slot per node: key + value + a control byte.
        let mut bytes = size_of::<PDocument>()
            + self.nodes.len() * (size_of::<NodeId>() + size_of::<PNode>() + 1);
        for node in self.nodes.values() {
            bytes += node.children.len() * size_of::<NodeId>();
            bytes += node.probs.len() * size_of::<f64>();
            if let PKind::Exp(dist) = &node.kind {
                bytes += dist.len() * size_of::<(u64, f64)>();
            }
        }
        bytes
    }

    /// Whether `n` belongs to this p-document.
    pub fn contains(&self, n: NodeId) -> bool {
        self.nodes.contains_key(&n)
    }

    /// Kind of node `n`.
    pub fn kind(&self, n: NodeId) -> &PKind {
        &self.nodes[&n].kind
    }

    /// Label of an ordinary node; `None` for distributional ones.
    pub fn label(&self, n: NodeId) -> Option<Label> {
        match self.nodes[&n].kind {
            PKind::Ordinary(l) => Some(l),
            _ => None,
        }
    }

    /// Parent of `n`.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[&n].parent
    }

    /// Children of `n` (ordinary or distributional).
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[&n].children
    }

    /// Survival probability of child `c` of node `n` (1.0 under ordinary,
    /// `det` parents). For `exp` parents this is the marginal over subsets.
    pub fn child_prob(&self, n: NodeId, c: NodeId) -> f64 {
        let node = &self.nodes[&n];
        let idx = node
            .children
            .iter()
            .position(|&x| x == c)
            .expect("child_prob: not a child");
        match &node.kind {
            PKind::Ordinary(_) | PKind::Det => 1.0,
            PKind::Mux | PKind::Ind => node.probs[idx],
            PKind::Exp(dist) => dist
                .iter()
                .filter(|(mask, _)| mask & (1 << idx) != 0)
                .map(|&(_, p)| p)
                .sum(),
        }
    }

    /// Edge probabilities of `n`'s children, in child order: the survival
    /// probabilities of a `mux`/`ind` node's children (1.0 entries
    /// elsewhere; an `exp` node's marginals come from [`Self::child_prob`]).
    pub fn edge_probs(&self, n: NodeId) -> &[f64] {
        &self.nodes[&n].probs
    }

    fn insert(&mut self, parent: NodeId, kind: PKind, prob: f64, id: NodeId) {
        assert!(
            !self.nodes.contains_key(&id),
            "duplicate node id {id} in p-document"
        );
        assert!(self.nodes.contains_key(&parent), "unknown parent {parent}");
        self.nodes.insert(
            id,
            PNode {
                kind,
                parent: Some(parent),
                children: Vec::new(),
                probs: Vec::new(),
            },
        );
        let p = self.nodes.get_mut(&parent).expect("parent checked");
        p.children.push(id);
        p.probs.push(prob);
        self.next_id = self.next_id.max(id.0 + 1);
    }

    /// Adds an ordinary child. `prob` is the survival probability assigned
    /// by the parent if the parent is `mux`/`ind` (pass 1.0 otherwise).
    pub fn add_ordinary(&mut self, parent: NodeId, label: Label, prob: f64) -> NodeId {
        let id = NodeId(self.next_id);
        self.add_ordinary_with_id(parent, label, prob, id);
        id
    }

    /// Adds an ordinary child with an explicit id.
    pub fn add_ordinary_with_id(&mut self, parent: NodeId, label: Label, prob: f64, id: NodeId) {
        self.insert(parent, PKind::Ordinary(label), prob, id);
    }

    /// Adds a distributional child of the given kind.
    pub fn add_dist(&mut self, parent: NodeId, kind: PKind, prob: f64) -> NodeId {
        let id = NodeId(self.next_id);
        self.add_dist_with_id(parent, kind, prob, id);
        id
    }

    /// Adds a distributional child with an explicit id.
    pub fn add_dist_with_id(&mut self, parent: NodeId, kind: PKind, prob: f64, id: NodeId) {
        assert!(!kind.is_ordinary(), "use add_ordinary for ordinary nodes");
        self.insert(parent, kind, prob, id);
    }

    /// Replaces the subset distribution of an `exp` node.
    pub fn set_exp_distribution(&mut self, n: NodeId, dist: Vec<(u64, f64)>) {
        let node = self.nodes.get_mut(&n).expect("unknown node");
        assert!(matches!(node.kind, PKind::Exp(_)), "not an exp node");
        node.kind = PKind::Exp(dist);
    }

    /// All node ids (unspecified order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Ids of ordinary nodes (unspecified order).
    pub fn ordinary_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|(_, n)| n.kind.is_ordinary())
            .map(|(&id, _)| id)
    }

    /// Number of distributional nodes.
    pub fn distributional_count(&self) -> usize {
        self.nodes
            .values()
            .filter(|n| !n.kind.is_ordinary())
            .count()
    }

    /// Pre-order traversal.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n).iter().copied());
        }
        out
    }

    /// The p-subdocument `P̂_n` rooted at node `n` (must be ordinary),
    /// preserving node ids.
    pub fn subtree(&self, n: NodeId) -> PDocument {
        let label = self.label(n).expect("subtree root must be ordinary");
        let mut out = PDocument::with_root_id(label, n);
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            let node = &self.nodes[&m];
            for (i, &c) in node.children.iter().enumerate() {
                let prob = node.probs.get(i).copied().unwrap_or(1.0);
                let ck = self.nodes[&c].kind.clone();
                match ck {
                    PKind::Ordinary(l) => out.add_ordinary_with_id(m, l, prob, c),
                    k => out.add_dist_with_id(m, k, prob, c),
                }
                stack.push(c);
            }
        }
        out.next_id = self.next_id;
        out
    }

    /// The closest ordinary ancestor of `n` (or `None` for the root).
    pub fn ordinary_ancestor(&self, n: NodeId) -> Option<NodeId> {
        let mut cur = self.parent(n);
        while let Some(p) = cur {
            if self.nodes[&p].kind.is_ordinary() {
                return Some(p);
            }
            cur = self.parent(p);
        }
        None
    }

    /// The path from the root to `n`, inclusive (through distributional
    /// nodes).
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

    /// `Pr(n ∈ P)`: the marginal probability that ordinary node `n` appears
    /// in a random document. Choices at distinct distributional nodes are
    /// independent, so this is the product of survival probabilities along
    /// the root path.
    pub fn appearance_probability(&self, n: NodeId) -> f64 {
        let path = self.root_path(n);
        let mut p = 1.0;
        for w in path.windows(2) {
            p *= self.child_prob(w[0], w[1]);
        }
        p
    }

    /// True iff `anc` is a (non-strict) ancestor of `n` (through
    /// distributional nodes).
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

    /// Converts to a deterministic [`Document`]; `None` if any
    /// distributional node is present.
    pub fn to_document(&self) -> Option<Document> {
        let root_label = self.label(self.root)?;
        let mut d = Document::with_root_id(root_label, self.root);
        for n in self.preorder() {
            if n == self.root {
                continue;
            }
            let l = self.label(n)?;
            d.add_child_with_id(self.parent(n).expect("non-root"), l, n);
        }
        Some(d)
    }

    /// Lifts a deterministic document into a p-document with no
    /// distributional nodes, preserving ids.
    pub fn from_document(d: &Document) -> PDocument {
        let mut p = PDocument::with_root_id(d.label(d.root()), d.root());
        let mut stack = vec![d.root()];
        while let Some(n) = stack.pop() {
            for &c in d.children(n) {
                p.add_ordinary_with_id(n, d.label(c), 1.0, c);
                stack.push(c);
            }
        }
        p.next_id = p.next_id.max(d.next_fresh_id().0);
        p
    }

    /// Next fresh id `add_*` would allocate.
    pub fn next_fresh_id(&self) -> NodeId {
        NodeId(self.next_id)
    }

    /// Replaces the label of ordinary node `n`. Panics if `n` is missing
    /// or distributional — [`crate::edit::Edit::Relabel`] validates first.
    pub fn relabel(&mut self, n: NodeId, label: Label) {
        let node = self.nodes.get_mut(&n).expect("relabel: unknown node");
        assert!(node.kind.is_ordinary(), "relabel: distributional node");
        node.kind = PKind::Ordinary(label);
    }

    /// Sets the survival probability of the edge from `n`'s parent to `n`.
    /// Panics unless the parent is `mux` or `ind` (the only kinds whose
    /// edges carry free probabilities) — [`crate::edit::Edit::SetProb`]
    /// validates first.
    pub fn set_child_prob(&mut self, n: NodeId, prob: f64) {
        let parent = self.parent(n).expect("set_child_prob: root has no edge");
        let p = self.nodes.get_mut(&parent).expect("parent exists");
        assert!(
            matches!(p.kind, PKind::Mux | PKind::Ind),
            "set_child_prob: parent is not mux/ind"
        );
        let idx = p
            .children
            .iter()
            .position(|&c| c == n)
            .expect("child of its parent");
        p.probs[idx] = prob;
    }

    /// Removes the subtree rooted at `n` (which must not be the root),
    /// detaching it from its parent. If the parent is an `exp` node the
    /// subset distribution is remapped: `n`'s bit is dropped from every
    /// mask and entries that collide are summed, in the distribution's
    /// original order (deterministic). Returns how many nodes were
    /// removed. Panics on the root — [`crate::edit::Edit::DeleteSubtree`]
    /// validates first.
    pub fn remove_subtree(&mut self, n: NodeId) -> usize {
        let parent = self
            .parent(n)
            .expect("remove_subtree: cannot remove the root");
        // Detach from the parent (children, probs, and exp masks in sync).
        let p = self.nodes.get_mut(&parent).expect("parent exists");
        let idx = p
            .children
            .iter()
            .position(|&c| c == n)
            .expect("child of its parent");
        p.children.remove(idx);
        p.probs.remove(idx);
        if let PKind::Exp(dist) = &p.kind {
            let mut remapped: Vec<(u64, f64)> = Vec::with_capacity(dist.len());
            for &(mask, prob) in dist {
                let low = mask & ((1u64 << idx) - 1);
                let high = (mask >> (idx + 1)) << idx;
                let new_mask = low | high;
                match remapped.iter_mut().find(|(m, _)| *m == new_mask) {
                    Some((_, acc)) => *acc += prob,
                    None => remapped.push((new_mask, prob)),
                }
            }
            p.kind = PKind::Exp(remapped);
        }
        // Drop the whole subtree from the node map.
        let mut removed = 0;
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            let node = self.nodes.remove(&m).expect("subtree node exists");
            stack.extend(node.children);
            removed += 1;
        }
        removed
    }

    /// Grafts a copy of `subtree` (a standalone p-document) below `parent`
    /// with edge probability `prob`, assigning **fresh ids** in preorder
    /// starting at [`PDocument::next_fresh_id`] (deterministic: the same
    /// graft on the same document always lands on the same ids). Returns
    /// the id assigned to the copy's root.
    pub fn graft_subtree(&mut self, parent: NodeId, subtree: &PDocument, prob: f64) -> NodeId {
        let root_label = subtree
            .label(subtree.root())
            .expect("p-document roots are ordinary");
        let root = self.add_ordinary(parent, root_label, prob);
        let mut stack = vec![(subtree.root(), root)];
        while let Some((s, d)) = stack.pop() {
            for &c in subtree.children(s) {
                let p = subtree.child_prob(s, c);
                let dc = match subtree.kind(c) {
                    PKind::Ordinary(l) => self.add_ordinary(d, *l, p),
                    k => self.add_dist(d, k.clone(), p),
                };
                stack.push((c, dc));
            }
        }
        root
    }

    /// Reserve ids below `bound`.
    pub fn reserve_ids_below(&mut self, bound: u32) {
        self.next_id = self.next_id.max(bound);
    }

    /// Validates Definition 1's well-formedness conditions.
    pub fn validate(&self) -> Result<(), PDocError> {
        if !self.nodes[&self.root].kind.is_ordinary() {
            return Err(PDocError::RootNotOrdinary);
        }
        for (&id, node) in &self.nodes {
            if !node.kind.is_ordinary() && node.children.is_empty() {
                return Err(PDocError::DistributionalLeaf(id));
            }
            match &node.kind {
                PKind::Mux => {
                    let mut sum = 0.0;
                    for &p in &node.probs {
                        if !(0.0..=1.0 + PROB_EPS).contains(&p) {
                            return Err(PDocError::ProbabilityOutOfRange(id));
                        }
                        sum += p;
                    }
                    if sum > 1.0 + PROB_EPS {
                        return Err(PDocError::MuxMassExceedsOne(id));
                    }
                }
                PKind::Ind => {
                    for &p in &node.probs {
                        if !(0.0..=1.0 + PROB_EPS).contains(&p) {
                            return Err(PDocError::ProbabilityOutOfRange(id));
                        }
                    }
                }
                PKind::Exp(dist) => {
                    let full: u64 = if node.children.len() >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << node.children.len()) - 1
                    };
                    let mut sum = 0.0;
                    for &(mask, p) in dist {
                        if mask & !full != 0 {
                            return Err(PDocError::BadExplicitDistribution(id));
                        }
                        if !(0.0..=1.0 + PROB_EPS).contains(&p) {
                            return Err(PDocError::ProbabilityOutOfRange(id));
                        }
                        sum += p;
                    }
                    if (sum - 1.0).abs() > 1e-6 {
                        return Err(PDocError::BadExplicitDistribution(id));
                    }
                }
                PKind::Ordinary(_) | PKind::Det => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for PDocument {
    /// Prints in the grammar accepted by [`crate::text::parse_pdocument`]:
    /// ordinary children in `[...]`, distributional entries in `(...)` with
    /// `prob:` prefixes. `exp` nodes (not expressible in the text grammar)
    /// print as `exp#id(...)` with marginal probabilities, for debugging.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(d: &PDocument, n: NodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let kids = d.children(n);
            match d.kind(n) {
                PKind::Ordinary(l) => {
                    write!(f, "{}#{}", crate::text::quote_label(l.name()), n.0)?;
                    if !kids.is_empty() {
                        f.write_str("[")?;
                        for (i, &c) in kids.iter().enumerate() {
                            if i > 0 {
                                f.write_str(", ")?;
                            }
                            rec(d, c, f)?;
                        }
                        f.write_str("]")?;
                    }
                }
                PKind::Exp(dist) => {
                    // exp grammar: children list, then the subset
                    // distribution over child indices.
                    write!(f, "exp#{}(", n.0)?;
                    for (i, &c) in kids.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        rec(d, c, f)?;
                    }
                    f.write_str("; ")?;
                    for (i, (mask, p)) in dist.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{p}: {{")?;
                        let mut first = true;
                        for b in 0..kids.len() {
                            if mask & (1 << b) != 0 {
                                if !first {
                                    f.write_str(", ")?;
                                }
                                write!(f, "{b}")?;
                                first = false;
                            }
                        }
                        f.write_str("}")?;
                    }
                    f.write_str(")")?;
                }
                kind => {
                    let name = match kind {
                        PKind::Mux => "mux",
                        PKind::Ind => "ind",
                        PKind::Det => "det",
                        PKind::Exp(_) | PKind::Ordinary(_) => unreachable!(),
                    };
                    write!(f, "{}#{}(", name, n.0)?;
                    for (i, &c) in kids.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        let p = d.child_prob(n, c);
                        if (p - 1.0).abs() > 1e-12 {
                            write!(f, "{p}: ")?;
                        }
                        rec(d, c, f)?;
                    }
                    f.write_str(")")?;
                }
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
    fn build_and_validate() {
        let mut p = PDocument::new(l("a"));
        let mux = p.add_dist(p.root(), PKind::Mux, 1.0);
        p.add_ordinary(mux, l("b"), 0.3);
        p.add_ordinary(mux, l("c"), 0.6);
        assert!(p.validate().is_ok());
        assert_eq!(p.distributional_count(), 1);
        assert_eq!(p.ordinary_ids().count(), 3);
    }

    #[test]
    fn mux_mass_check() {
        let mut p = PDocument::new(l("a"));
        let mux = p.add_dist(p.root(), PKind::Mux, 1.0);
        p.add_ordinary(mux, l("b"), 0.7);
        p.add_ordinary(mux, l("c"), 0.7);
        assert!(matches!(p.validate(), Err(PDocError::MuxMassExceedsOne(_))));
    }

    #[test]
    fn distributional_leaf_check() {
        let mut p = PDocument::new(l("a"));
        p.add_dist(p.root(), PKind::Ind, 1.0);
        assert!(matches!(
            p.validate(),
            Err(PDocError::DistributionalLeaf(_))
        ));
    }

    #[test]
    fn appearance_probability_multiplies_along_path() {
        let mut p = PDocument::new(l("a"));
        let mux = p.add_dist(p.root(), PKind::Mux, 1.0);
        let b = p.add_ordinary(mux, l("b"), 0.5);
        let ind = p.add_dist(b, PKind::Ind, 1.0);
        let c = p.add_ordinary(ind, l("c"), 0.4);
        assert!((p.appearance_probability(c) - 0.2).abs() < 1e-12);
        assert!((p.appearance_probability(b) - 0.5).abs() < 1e-12);
        assert!((p.appearance_probability(p.root()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordinary_ancestor_skips_distributional() {
        let mut p = PDocument::new(l("a"));
        let mux = p.add_dist(p.root(), PKind::Mux, 1.0);
        let ind = p.add_dist(mux, PKind::Ind, 0.5);
        let b = p.add_ordinary(ind, l("b"), 0.4);
        assert_eq!(p.ordinary_ancestor(b), Some(p.root()));
        assert_eq!(p.ordinary_ancestor(p.root()), None);
    }

    #[test]
    fn document_round_trip() {
        let mut d = Document::new(l("a"));
        let b = d.add_child(d.root(), l("b"));
        d.add_child(b, l("c"));
        let p = PDocument::from_document(&d);
        let d2 = p.to_document().expect("no distributional nodes");
        assert!(d.structurally_equal(&d2));
        assert_eq!(d.id_set_key(), d2.id_set_key());
    }

    #[test]
    fn subtree_preserves_structure() {
        let mut p = PDocument::new(l("a"));
        let b = p.add_ordinary(p.root(), l("b"), 1.0);
        let mux = p.add_dist(b, PKind::Mux, 1.0);
        let c = p.add_ordinary(mux, l("c"), 0.25);
        let sub = p.subtree(b);
        assert_eq!(sub.root(), b);
        assert!(sub.contains(c));
        assert!((sub.child_prob(mux, c) - 0.25).abs() < 1e-12);
        assert!(!sub.contains(p.root()));
    }

    #[test]
    fn exp_marginal_probability() {
        let mut p = PDocument::new(l("a"));
        let exp = p.add_dist(p.root(), PKind::Exp(Vec::new()), 1.0);
        let b = p.add_ordinary(exp, l("b"), 1.0);
        let c = p.add_ordinary(exp, l("c"), 1.0);
        // {b,c} w.p. 0.5, {b} w.p. 0.25, {} w.p. 0.25
        p.set_exp_distribution(exp, vec![(0b11, 0.5), (0b01, 0.25), (0b00, 0.25)]);
        assert!(p.validate().is_ok());
        assert!((p.appearance_probability(b) - 0.75).abs() < 1e-12);
        assert!((p.appearance_probability(c) - 0.5).abs() < 1e-12);
    }
}
