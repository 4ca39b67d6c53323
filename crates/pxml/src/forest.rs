//! One column layout for (p-)document trees, shared by every kernel that
//! walks them: the embedding kernel (`pxv_tpq::embed::Embedder`) and the
//! probability DP (`pxv_peval::dp`).
//!
//! A [`Forest`] holds trees in forward-child-order preorder columns, one
//! contiguous slot range per tree: every slot comes after its parent, its
//! subtree occupies the slots right behind it, and siblings appear in
//! child order. A slot is ordinary (a labeled node) or distributional
//! (`mux`, `ind`, `det`, `exp`). Distributional slots keep their
//! parameters in side tables: the edge probabilities of a `mux`/`ind`
//! slot's children, in child order, and the subset table of an `exp` slot.
//!
//! A [`Document`] lays out with no distributional slots. A p-document
//! keeps its distributional nodes, so the maximal world (every ordinary
//! node under its closest ordinary ancestor) is read through them, and
//! the DP mixes their children by kind.

use crate::document::{Document, NodeId};
use crate::label::Label;
use crate::pdocument::{PDocument, PKind};
use std::ops::Range;

/// `parent` entry of a tree's root slot.
pub const NO_PARENT: u32 = u32::MAX;

/// Kind of a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Slot {
    /// A labeled node.
    Ordinary,
    /// At most one child survives, with its edge probability.
    Mux,
    /// Each child survives independently, with its edge probability.
    Ind,
    /// Every child survives.
    Det,
    /// The surviving children follow an explicit subset table.
    Exp,
}

/// Trees in forward-child-order preorder columns (see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Forest {
    /// Ordinary slot: the node id it is stored under. `mux`/`ind` slot:
    /// offset of its children's edge probabilities in `edge_prob`.
    /// `exp` slot: index of its table in `exp_at`. `det` slot: 0.
    id: Vec<NodeId>,
    /// Label of an ordinary slot; a distributional slot repeats its
    /// parent's (kernels never read it).
    label: Vec<Label>,
    /// Parent slot, relative to the start of the slot's tree; `NO_PARENT`
    /// at the tree root.
    parent: Vec<u32>,
    /// Kind of each slot.
    kind: Vec<Slot>,
    /// Edge probabilities of `mux`/`ind` children, in child order.
    edge_prob: Vec<f64>,
    /// `exp` subset tables, back to back.
    exp: Vec<(u64, f64)>,
    /// Range of each `exp` table in `exp`.
    exp_at: Vec<(u32, u32)>,
    /// First slot of each tree.
    starts: Vec<usize>,
}

/// What a [`Forest`] holds, counted: enough to know its byte charge
/// without laying it out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Shape {
    /// Slots over all trees.
    pub slots: usize,
    /// Children of `mux`/`ind` slots (one edge probability each).
    pub edge_probs: usize,
    /// `exp` slots.
    pub exp_tables: usize,
    /// Entries over all `exp` tables.
    pub exp_entries: usize,
    /// Trees.
    pub trees: usize,
}

impl Shape {
    /// The bytes a forest of this shape is charged: 13 per slot (id,
    /// label, parent, kind), 8 per edge probability, 8 + 16 per entry per
    /// `exp` table and 8 per tree.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let slot = size_of::<NodeId>() + size_of::<Label>() + size_of::<u32>() + size_of::<Slot>();
        self.slots * slot
            + self.edge_probs * size_of::<f64>()
            + self.exp_tables * size_of::<(u32, u32)>()
            + self.exp_entries * size_of::<(u64, f64)>()
            + self.trees * size_of::<usize>()
    }

    /// Counts one p-document node of `kind` with `children` children the
    /// way [`Forest::push_pdocument`] lays it out: an ordinary node is a
    /// slot when it is `kept`; a distributional node always is, with its
    /// parameters. The one statement of that rule: `push_pdocument` checks
    /// its layout against it.
    pub fn add_node(&mut self, kind: &PKind, kept: bool, children: usize) {
        match kind {
            PKind::Ordinary(_) => self.slots += usize::from(kept),
            PKind::Mux | PKind::Ind => {
                self.slots += 1;
                self.edge_probs += children;
            }
            PKind::Det => self.slots += 1,
            PKind::Exp(table) => {
                self.slots += 1;
                self.exp_tables += 1;
                self.exp_entries += table.len();
            }
        }
    }
}

impl Forest {
    /// `d` as a single tree.
    pub fn of_document(d: &Document) -> Forest {
        let mut f = Forest::default();
        f.push_document(d);
        f
    }

    /// Appends `d` as a new tree.
    pub fn push_document(&mut self, d: &Document) {
        self.starts.push(self.id.len());
        let mut stack = vec![(d.root(), NO_PARENT)];
        while let Some((n, parent)) = stack.pop() {
            let slot = self.push_slot(n, d.label(n), parent, Slot::Ordinary);
            stack.extend(d.children(n).iter().rev().map(|&c| (c, slot)));
        }
    }

    /// The p-subdocument `P̂_root` (`root` ordinary) as a single tree.
    pub fn of_pdocument(pdoc: &PDocument, root: NodeId) -> Forest {
        let mut f = Forest::default();
        f.push_pdocument(pdoc, root, Some);
        f
    }

    /// Appends the p-subdocument `P̂_root` as a new tree. Every
    /// distributional node is kept; an ordinary node is kept, stored
    /// under id `id_of(n)`, when `id_of` maps it to one, and skipped
    /// otherwise — its children then hang under its closest kept
    /// ancestor. `root` must be kept, and so must every child of a
    /// distributional node (the DP reads a `mux`/`ind`/`exp` slot's
    /// parameters by child position).
    pub fn push_pdocument(
        &mut self,
        pdoc: &PDocument,
        root: NodeId,
        id_of: impl Fn(NodeId) -> Option<NodeId>,
    ) {
        let start = self.id.len();
        let mut counted = self.shape();
        counted.trees += 1;
        self.starts.push(start);
        let root_label = pdoc.label(root).expect("tree roots are ordinary");
        let mut stack = vec![(root, NO_PARENT, root_label)];
        while let Some((n, parent, above)) = stack.pop() {
            let kids = pdoc.children(n);
            let before = self.id.len();
            let (below, label) = match pdoc.kind(n) {
                PKind::Ordinary(label) => match id_of(n) {
                    Some(id) => (self.push_slot(id, *label, parent, Slot::Ordinary), *label),
                    None => (parent, above),
                },
                PKind::Mux | PKind::Ind => {
                    let at = NodeId(self.edge_prob.len() as u32);
                    let kind = if matches!(pdoc.kind(n), PKind::Mux) {
                        Slot::Mux
                    } else {
                        Slot::Ind
                    };
                    self.edge_prob.extend_from_slice(pdoc.edge_probs(n));
                    (self.push_slot(at, above, parent, kind), above)
                }
                PKind::Det => (self.push_slot(NodeId(0), above, parent, Slot::Det), above),
                PKind::Exp(table) => {
                    let at = NodeId(self.exp_at.len() as u32);
                    let from = self.exp.len() as u32;
                    self.exp.extend_from_slice(table);
                    self.exp_at.push((from, self.exp.len() as u32));
                    (self.push_slot(at, above, parent, Slot::Exp), above)
                }
            };
            counted.add_node(pdoc.kind(n), self.id.len() > before, kids.len());
            stack.extend(kids.iter().rev().map(|&c| (c, below, label)));
        }
        debug_assert!(self.id.len() > start, "the root is kept");
        debug_assert_eq!(self.shape(), counted, "the layout follows Shape::add_node");
    }

    /// Appends one slot to the last tree; returns its tree-relative index.
    fn push_slot(&mut self, id: NodeId, label: Label, parent: u32, kind: Slot) -> u32 {
        let start = self.starts.last().copied().unwrap_or(0);
        self.id.push(id);
        self.label.push(label);
        self.parent.push(parent);
        self.kind.push(kind);
        // A tree holds at most one slot per `u32` node id.
        (self.id.len() - 1 - start) as u32
    }

    /// Number of slots over all trees.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// Whether no tree has a slot.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// The slot range of tree `t`.
    pub fn range(&self, t: usize) -> Range<usize> {
        self.starts[t]..self.starts.get(t + 1).copied().unwrap_or(self.id.len())
    }

    /// The columns of tree `t`, indexed by tree-relative slot.
    pub fn tree(&self, t: usize) -> Tree<'_> {
        let r = self.range(t);
        Tree {
            id: &self.id[r.clone()],
            label: &self.label[r.clone()],
            parent: &self.parent[r.clone()],
            kind: &self.kind[r],
            forest: self,
        }
    }

    /// What this forest holds, counted.
    pub fn shape(&self) -> Shape {
        Shape {
            slots: self.id.len(),
            edge_probs: self.edge_prob.len(),
            exp_tables: self.exp_at.len(),
            exp_entries: self.exp.len(),
            trees: self.starts.len(),
        }
    }
}

/// The columns of one tree of a [`Forest`]; slot indices are relative to
/// the tree's first slot, which is its (ordinary) root.
#[derive(Clone, Copy, Debug)]
pub struct Tree<'a> {
    /// Node id of an ordinary slot (a side-table index otherwise).
    pub id: &'a [NodeId],
    /// Label of an ordinary slot.
    pub label: &'a [Label],
    /// Parent slot; [`NO_PARENT`] at the root.
    pub parent: &'a [u32],
    /// Slot kinds.
    pub kind: &'a [Slot],
    forest: &'a Forest,
}

impl<'a> Tree<'a> {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// Whether the tree has no slot.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Edge probabilities of the children of `mux`/`ind` slot `v`, in
    /// child order (`count` children).
    pub fn edge_probs(&self, v: usize, count: usize) -> &'a [f64] {
        let at = self.id[v].0 as usize;
        &self.forest.edge_prob[at..at + count]
    }

    /// Subset table of `exp` slot `v` (masks over its children in order).
    pub fn exp_table(&self, v: usize) -> &'a [(u64, f64)] {
        let (from, to) = self.forest.exp_at[self.id[v].0 as usize];
        &self.forest.exp[from as usize..to as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::parse_pdocument;

    /// (id, label, kind, parent id) per slot of tree 0, for ordinary
    /// slots, in slot order.
    fn ordinary(f: &Forest) -> Vec<(u32, &'static str, Option<u32>)> {
        let t = f.tree(0);
        let ordinary_parent = |mut v: usize| loop {
            match t.parent[v] {
                NO_PARENT => return None,
                p if t.kind[p as usize] == Slot::Ordinary => return Some(t.id[p as usize].0),
                p => v = p as usize,
            }
        };
        (0..t.len())
            .filter(|&v| t.kind[v] == Slot::Ordinary)
            .map(|v| (t.id[v].0, t.label[v].name(), ordinary_parent(v)))
            .collect()
    }

    #[test]
    fn pdocument_layout_is_forward_preorder_through_distributional_slots() {
        let p =
            parse_pdocument("a#0[mux#1(0.5: b#2[c#3], 0.25: d#4), ind#5(0.1: e#6), f#7]").unwrap();
        let f = Forest::of_pdocument(&p, NodeId(0));
        let t = f.tree(0);
        assert_eq!(
            t.kind,
            &[
                Slot::Ordinary,
                Slot::Mux,
                Slot::Ordinary,
                Slot::Ordinary,
                Slot::Ordinary,
                Slot::Ind,
                Slot::Ordinary,
                Slot::Ordinary
            ]
        );
        assert_eq!(
            ordinary(&f),
            vec![
                (0, "a", None),
                (2, "b", Some(0)),
                (3, "c", Some(2)),
                (4, "d", Some(0)),
                (6, "e", Some(0)),
                (7, "f", Some(0))
            ]
        );
        assert_eq!(t.edge_probs(1, 2), &[0.5, 0.25]);
        assert_eq!(t.edge_probs(5, 1), &[0.1]);
        assert_eq!(
            f.shape(),
            Shape {
                slots: 8,
                edge_probs: 3,
                exp_tables: 0,
                exp_entries: 0,
                trees: 1
            }
        );
    }

    #[test]
    fn skipped_ordinary_nodes_reparent_their_children() {
        let p = parse_pdocument("a#0[x#1[b#2], exp#3(c#4, d#5; 0.5: {0}, 0.5: {0, 1})]").unwrap();
        let mut f = Forest::default();
        f.push_pdocument(&p, NodeId(0), |n| (n != NodeId(1)).then_some(n));
        assert_eq!(
            ordinary(&f),
            vec![
                (0, "a", None),
                (2, "b", Some(0)),
                (4, "c", Some(0)),
                (5, "d", Some(0))
            ]
        );
        let t = f.tree(0);
        let exp = (0..t.len()).find(|&v| t.kind[v] == Slot::Exp).unwrap();
        assert_eq!(t.exp_table(exp), &[(0b01, 0.5), (0b11, 0.5)]);
    }

    #[test]
    fn documents_lay_out_in_child_order() {
        let d = crate::text::parse_document("a#0[b#1[c#2], d#3]").unwrap();
        let f = Forest::of_document(&d);
        assert_eq!(
            ordinary(&f),
            vec![
                (0, "a", None),
                (1, "b", Some(0)),
                (2, "c", Some(1)),
                (3, "d", Some(0))
            ]
        );
    }
}
