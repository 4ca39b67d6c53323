//! Polynomial (data-complexity) evaluation of tree patterns over
//! p-documents: the dynamic program standing in for the evaluation engine
//! of Kimelfeld et al. \[22\] that the paper uses as a black box.
//!
//! ## Idea
//!
//! For a *conjunction* of Boolean patterns `{q1, …, qm}` (a TP∩ after
//! output pinning) give every query node `x` a pair of Boolean events at
//! each ordinary p-document node `v`:
//!
//! * `A_v(x)`: the subpattern rooted at `x` embeds with `x ↦ v`,
//! * `B_v(x)`: it embeds with `x` mapped to `v` or a surviving proper
//!   descendant of `v`.
//!
//! Distinct subtrees of a p-document use distinct distributional nodes, so
//! sibling subtrees are probabilistically independent and their joint event
//! distributions combine by sparse OR-convolution; `mux`/`ind`/`det`/`exp`
//! nodes mix their children's distributions according to the generative
//! process of §2. One bottom-up pass yields the exact probability that all
//! patterns match. Complexity: linear in `|P̂|` for a fixed conjunction,
//! exponential in query size in the worst case — the envelope the paper
//! states for \[22\] (PTime data complexity, intractable query complexity).
//!
//! `Pr(n ∈ q(P))` reduces to a Boolean match by *pinning*: give `n` a
//! certain, childless child that only a pin query node matches, and extend
//! `out(q)` with that pin as a `/`-child; the pinned pattern matches
//! exactly when some embedding sends `out(q)` to `n`. Pins are virtual:
//! the kernel plays the pin child's message at the target slot, so no
//! document or pattern is copied per target. A pin's node is fixed when
//! the conjunction is compiled, or — for [`Conjunction::marked`] — named
//! by each run ([`Kernel::probability_with_pin`]), so one compiled
//! conjunction serves every target.
//!
//! ## One kernel
//!
//! A [`Conjunction`] is compiled once: per query node, its label and one
//! requirement mask. [`Kernel::probability`] walks one tree of a
//! [`Forest`] in reverse preorder with a message stack — when a slot is
//! processed, its children's messages sit on top of the stack in child
//! order — and reuses its buffers across runs. Distributions are flat
//! `(state, probability)` lists. Their order is that of the hash table the
//! DP used to keep them in (see `crate::table`), because float sums depend
//! on the order of their terms and answers stay bit-identical to it.

use crate::table::{Dist, State, Table};
use pxv_pxml::forest::{Forest, Slot, Tree, NO_PARENT};
use pxv_pxml::{Document, Label, NodeId, PDocument};
use pxv_tpq::pattern::{Axis, TreePattern};
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Where a slot's pin child sits among its children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PinSite {
    /// Before the children: where a view extension's `Id(·)` marker is.
    First,
    /// After the children: where pinning a copy of the document appended
    /// its pin.
    Last,
}

/// `target` of a query node that is not a pin.
const NOT_PIN: NodeId = NodeId(u32::MAX);

/// `target` of a pin whose node each run names.
const RUN_PIN: NodeId = NodeId(u32::MAX - 1);

/// One compiled query node.
#[derive(Clone, Copy, Debug)]
struct QNode {
    /// The `A` bit of each `/`-child and the `B` bit of each `//`-child:
    /// what a slot's children must provide for the node to embed there.
    req: State,
    /// Label the node matches (never compared for a pin).
    label: Label,
    /// The node a pin sits on; `RUN_PIN` when each run names it,
    /// `NOT_PIN` for a node matching by label.
    target: NodeId,
}

/// A conjunction of Boolean patterns compiled for the [`Kernel`], with
/// global query-node indices `offset(pattern) + node`.
#[derive(Clone, Debug)]
pub struct Conjunction {
    nodes: Vec<QNode>,
    site: PinSite,
    /// Whether a pin's node is named by each run.
    run_pin: bool,
    /// `A` bits of the pattern roots.
    need: State,
    /// Every `B` bit.
    b_all: State,
}

fn a_bit(g: usize) -> State {
    1u128 << (2 * g)
}

fn b_bit(g: usize) -> State {
    1u128 << (2 * g + 1)
}

impl Conjunction {
    fn empty(site: PinSite) -> Conjunction {
        Conjunction {
            nodes: Vec::new(),
            site,
            run_pin: false,
            need: 0,
            b_all: 0,
        }
    }

    /// Compiles `patterns`. A leaf whose label `pin_of` maps to a node is
    /// a pin on that node, sitting where an extension's `Id(·)` marker
    /// sits: before the node's children.
    pub fn new(patterns: &[TreePattern], pin_of: impl Fn(Label) -> Option<NodeId>) -> Conjunction {
        let mut c = Conjunction::empty(PinSite::First);
        for q in patterns {
            let offset = c.add(q);
            for x in q.node_ids() {
                if q.children(x).is_empty() {
                    if let Some(t) = pin_of(q.label(x)) {
                        c.nodes[offset + x.0 as usize].target = t;
                    }
                }
            }
        }
        c
    }

    /// Compiles each pattern with a pin `/`-child under its output on its
    /// target node, sitting after the node's children. Patterns with the
    /// same target share the target's one pin child.
    pub fn pinned(specs: &[(&TreePattern, NodeId)]) -> Conjunction {
        let mut c = Conjunction::empty(PinSite::Last);
        for &(q, target) in specs {
            let offset = c.add(q);
            c.reserve(1);
            let g = c.nodes.len();
            c.nodes.push(QNode {
                req: 0,
                label: q.output_label(),
                target,
            });
            c.b_all |= b_bit(g);
            c.nodes[offset + q.output().0 as usize].req |= a_bit(g);
        }
        c
    }

    /// `q` with a pin `/`-child under its output, sitting before the
    /// node's children, on the node each run names: what
    /// [`Conjunction::new`] compiles from `q` with an extension's `Id(n)`
    /// marker label under its output, for every `n` at once. Runs go
    /// through [`Kernel::probability_with_pin`].
    pub fn marked(q: &TreePattern) -> Conjunction {
        let mut c = Conjunction::pinned(&[(q, RUN_PIN)]);
        c.site = PinSite::First;
        c.run_pin = true;
        c
    }

    /// Appends `q`'s nodes, matching by label; returns its offset.
    fn add(&mut self, q: &TreePattern) -> usize {
        let offset = self.nodes.len();
        self.reserve(q.len());
        for x in q.node_ids() {
            let mut req = 0;
            for &y in q.children(x) {
                let gy = offset + y.0 as usize;
                req |= match q.axis(y) {
                    Axis::Child => a_bit(gy),
                    Axis::Descendant => b_bit(gy),
                };
            }
            self.b_all |= b_bit(offset + x.0 as usize);
            self.nodes.push(QNode {
                req,
                label: q.label(x),
                target: NOT_PIN,
            });
        }
        self.need |= a_bit(offset + q.root().0 as usize);
        offset
    }

    /// Checks that `more` query nodes still fit the state.
    fn reserve(&self, more: usize) {
        let total = self.nodes.len() + more;
        assert!(
            total <= 64,
            "conjunction too large for the 128-bit state encoding ({total} query nodes)"
        );
    }

    /// At an ordinary slot labeled `label` holding node `id`, in a run
    /// whose pin is on `run`: the query nodes matching its label, and the
    /// `A|B` bits of the pins on it.
    fn at_slot(&self, label: Label, id: NodeId, run: NodeId) -> (u64, State) {
        let (mut here, mut pin) = (0u64, 0);
        for (g, x) in self.nodes.iter().enumerate() {
            let on = match x.target {
                NOT_PIN => {
                    if x.label == label {
                        here |= 1 << g;
                    }
                    continue;
                }
                RUN_PIN => run,
                t => t,
            };
            if on == id {
                pin |= a_bit(g) | b_bit(g);
            }
        }
        (here, pin)
    }

    /// The state an ordinary slot passes up when its children's joint
    /// state is `s` and `here` holds the query nodes matching its label.
    fn lift(&self, s: State, here: u64) -> State {
        let mut ns = s & self.b_all;
        let mut h = here;
        while h != 0 {
            let g = h.trailing_zeros() as usize;
            h &= h - 1;
            let req = self.nodes[g].req;
            if s & req == req {
                ns |= a_bit(g) | b_bit(g);
            }
        }
        ns
    }
}

/// The probability DP over one tree of a [`Forest`]; holds scratch
/// buffers that every run reuses, so a warm kernel allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Kernel {
    /// Messages of processed slots whose parent is still pending, back to
    /// back, then the message being built and its operands.
    msgs: Dist,
    /// Per pending message: its start in `msgs` and its parent slot.
    frames: Vec<(usize, u32)>,
    table: Table,
    /// Accumulates an `exp` slot's mixture while `table` convolves.
    outer: Table,
}

impl Kernel {
    /// Probability that every pattern of `conj` matches tree `t` of
    /// `forest` with its root at the tree root. `conj`'s pins are on the
    /// nodes it was compiled with.
    pub fn probability(&mut self, forest: &Forest, t: usize, conj: &Conjunction) -> f64 {
        assert!(
            !conj.run_pin,
            "a run-pinned conjunction needs its pin's node"
        );
        self.run(forest, t, conj, NOT_PIN)
    }

    /// [`Kernel::probability`] for a conjunction from
    /// [`Conjunction::marked`], its pin on `n`.
    pub fn probability_with_pin(
        &mut self,
        forest: &Forest,
        t: usize,
        conj: &Conjunction,
        n: NodeId,
    ) -> f64 {
        assert!(
            conj.run_pin,
            "only a run-pinned conjunction takes a pin's node"
        );
        self.run(forest, t, conj, n)
    }

    fn run(&mut self, forest: &Forest, t: usize, conj: &Conjunction, run: NodeId) -> f64 {
        let tree = forest.tree(t);
        self.msgs.clear();
        self.frames.clear();
        for v in (0..tree.len()).rev() {
            // Children's frames are the top ones naming `v` as parent, the
            // first child on top.
            let mut below = self.frames.len();
            while below > 0 && self.frames[below - 1].1 == v as u32 {
                below -= 1;
            }
            let at = self.msgs.len();
            self.message(&tree, v, below, conj, run);
            // The message replaces the children's.
            let base = self.frames.get(below).map_or(at, |f| f.0);
            let len = self.msgs.len() - at;
            self.msgs.copy_within(at.., base);
            self.msgs.truncate(base + len);
            self.frames.truncate(below);
            self.frames.push((base, tree.parent[v]));
        }
        debug_assert_eq!(self.frames.len(), 1);
        debug_assert_eq!(self.frames[0].1, NO_PARENT);
        self.msgs
            .iter()
            .filter(|&&(s, _)| s & conj.need == conj.need)
            .map(|&(_, p)| p)
            .sum()
    }

    /// Appends slot `v`'s message to `msgs`, from its children's messages:
    /// those of the frames from `below` up, the first child on top.
    fn message(
        &mut self,
        tree: &Tree<'_>,
        v: usize,
        below: usize,
        conj: &Conjunction,
        run: NodeId,
    ) {
        let Kernel {
            msgs,
            frames,
            table,
            outer,
        } = self;
        let at = msgs.len();
        let kids = frames.len() - below;
        let kid = |k: usize| {
            let j = frames.len() - 1 - k;
            frames[j].0..frames.get(j + 1).map_or(at, |f| f.0)
        };
        match tree.kind[v] {
            Slot::Ordinary => {
                let (here, pin) = conj.at_slot(tree.label[v], tree.id[v], run);
                // A pin child before the children turns the empty start
                // into the pin's certain state; a missing pin leaves it.
                let first = if conj.site == PinSite::First { pin } else { 0 };
                msgs.push((first, 1.0));
                for k in 0..kids {
                    or_convolve(table, msgs, at, kid(k));
                }
                if conj.site == PinSite::Last && pin != 0 {
                    msgs.push((pin, 1.0));
                    or_convolve(table, msgs, at, msgs.len() - 1..msgs.len());
                }
                if let [(s, p)] = msgs[at..] {
                    // What a one-entry table lists.
                    msgs[at] = (conj.lift(s, here), 0.0 + p);
                    return;
                }
                table.reset(msgs.len() - at);
                for &(s, p) in &msgs[at..] {
                    table.add(conj.lift(s, here), p);
                }
                msgs.truncate(at);
                table.append_to(msgs);
            }
            Slot::Mux => {
                let probs = tree.edge_probs(v, kids);
                table.reset(0);
                let mut mass = 0.0;
                for (k, &p) in probs.iter().enumerate() {
                    mass += p;
                    for &(s, q) in &msgs[kid(k)] {
                        table.add(s, p * q);
                    }
                }
                table.add(0, (1.0 - mass).max(0.0));
                table.append_to(msgs);
            }
            Slot::Ind => {
                let probs = tree.edge_probs(v, kids);
                msgs.push((0, 1.0));
                for (k, &p) in probs.iter().enumerate() {
                    // The child kept with probability `p`, built behind
                    // the accumulated message.
                    table.reset(kid(k).len() + 1);
                    for &(s, q) in &msgs[kid(k)] {
                        table.add(s, p * q);
                    }
                    table.add(0, 1.0 - p);
                    let kept = msgs.len();
                    table.append_to(msgs);
                    or_convolve(table, msgs, at, kept..msgs.len());
                }
            }
            Slot::Det => {
                msgs.push((0, 1.0));
                for k in 0..kids {
                    or_convolve(table, msgs, at, kid(k));
                }
            }
            Slot::Exp => {
                outer.reset(0);
                for &(mask, pm) in tree.exp_table(v) {
                    msgs.push((0, 1.0));
                    for k in 0..kids {
                        if mask & (1 << k) != 0 {
                            or_convolve(table, msgs, at, kid(k));
                        }
                    }
                    for &(s, q) in &msgs[at..] {
                        outer.add(s, pm * q);
                    }
                    msgs.truncate(at);
                }
                outer.append_to(msgs);
            }
        }
    }
}

/// One kernel kept between runs by an owner that outlives many short
/// evaluations (a view extension), so a run skips growing a new kernel's
/// buffers. An evaluation that finds it lent out gets a new kernel; a
/// clone starts with a new one.
#[derive(Default)]
pub struct SharedKernel(Mutex<Kernel>);

/// A kernel lent by a [`SharedKernel`] until dropped, or a new one.
pub enum Lent<'a> {
    /// The shared kernel.
    Shared(MutexGuard<'a, Kernel>),
    /// A new kernel, the shared one being lent out.
    Own(Kernel),
}

impl SharedKernel {
    /// The shared kernel if it is free, else a new one. Never blocks.
    pub fn lend(&self) -> Lent<'_> {
        match self.0.try_lock() {
            Ok(k) => Lent::Shared(k),
            // A run starts by clearing its buffers, so a kernel a panic
            // left behind is as good as any.
            Err(TryLockError::Poisoned(e)) => Lent::Shared(e.into_inner()),
            Err(TryLockError::WouldBlock) => Lent::Own(Kernel::default()),
        }
    }
}

impl Clone for SharedKernel {
    fn clone(&self) -> SharedKernel {
        SharedKernel::default()
    }
}

impl std::fmt::Debug for SharedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedKernel").finish_non_exhaustive()
    }
}

impl std::ops::Deref for Lent<'_> {
    type Target = Kernel;

    fn deref(&self) -> &Kernel {
        match self {
            Lent::Shared(k) => k,
            Lent::Own(k) => k,
        }
    }
}

impl std::ops::DerefMut for Lent<'_> {
    fn deref_mut(&mut self) -> &mut Kernel {
        match self {
            Lent::Shared(k) => k,
            Lent::Own(k) => k,
        }
    }
}

/// Replaces the distribution `msgs[at..d2.start]` (or `msgs[at..]` when
/// `d2` lies below `at`) with its OR-convolution with the independent
/// distribution `msgs[d2]`. The empty state with probability 1 (to within
/// 1e-15) on the left leaves `msgs[d2]` as it is.
fn or_convolve(table: &mut Table, msgs: &mut Dist, at: usize, d2: Range<usize>) {
    let end = if d2.start >= at { d2.start } else { msgs.len() };
    let identity = matches!(msgs[at..end], [(0, p)] if (p - 1.0).abs() < 1e-15);
    if identity && d2.start >= at {
        msgs.copy_within(d2.clone(), at);
        msgs.truncate(at + d2.len());
        return;
    }
    if identity {
        msgs.truncate(at);
        msgs.extend_from_within(d2);
        return;
    }
    if let ([(s1, p1)], [(s2, p2)]) = (&msgs[at..end], &msgs[d2.clone()]) {
        // What a one-entry table lists.
        let one = (s1 | s2, 0.0 + p1 * p2);
        msgs.truncate(at);
        msgs.push(one);
        return;
    }
    table.reset((end - at) * d2.len());
    for &(s1, p1) in &msgs[at..end] {
        for &(s2, p2) in &msgs[d2.clone()] {
            table.add(s1 | s2, p1 * p2);
        }
    }
    msgs.truncate(at);
    table.append_to(msgs);
}

/// Probability that **all** patterns match the random document (with their
/// roots at the document root).
pub fn boolean_conjunction_probability(pdoc: &PDocument, patterns: &[TreePattern]) -> f64 {
    boolean_conjunction_probability_at(pdoc, pdoc.root(), patterns)
}

/// [`boolean_conjunction_probability`] over the p-subdocument `P̂_root`
/// (`root` must be ordinary): the subdocument is laid into columns and
/// the kernel runs on them.
pub fn boolean_conjunction_probability_at(
    pdoc: &PDocument,
    root: NodeId,
    patterns: &[TreePattern],
) -> f64 {
    if patterns.is_empty() {
        return 1.0;
    }
    let conj = Conjunction::new(patterns, |_| None);
    Kernel::default().probability(&Forest::of_pdocument(pdoc, root), 0, &conj)
}

/// Probability that a single Boolean pattern matches.
pub fn boolean_probability(pdoc: &PDocument, q: &TreePattern) -> f64 {
    boolean_probability_at(pdoc, pdoc.root(), q)
}

/// [`boolean_probability`] over the p-subdocument `P̂_root` (see
/// [`boolean_conjunction_probability_at`]).
pub fn boolean_probability_at(pdoc: &PDocument, root: NodeId, q: &TreePattern) -> f64 {
    boolean_conjunction_probability_at(pdoc, root, std::slice::from_ref(q))
}

/// The *maximal world*: the document keeping every ordinary node.
/// TP matching is monotone, so any node selected in some world is selected
/// here. Candidate search embeds on the p-document's columns
/// (`pxv_pxml::Forest`) without building a `Document`; this walk stays as
/// its independent reference.
pub fn max_world(pdoc: &PDocument) -> Document {
    let root = pdoc.root();
    let mut d = Document::with_root_id(pdoc.label(root).expect("root ordinary"), root);
    // Pre-order walk carrying each node's closest ordinary ancestor.
    let mut stack: Vec<(NodeId, NodeId)> = pdoc.children(root).iter().map(|&c| (c, root)).collect();
    while let Some((n, parent)) = stack.pop() {
        let below = match pdoc.label(n) {
            Some(l) => {
                d.add_child_with_id(parent, l, n);
                n
            }
            None => parent,
        };
        stack.extend(pdoc.children(n).iter().map(|&c| (c, below)));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_pxml::text::parse_pdocument;
    use pxv_tpq::parse::parse_pattern;

    fn q(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    #[test]
    fn deterministic_document_probabilities() {
        let p = parse_pdocument("a[b[c], d]").unwrap();
        assert!((boolean_probability(&p, &q("a/b[c]")) - 1.0).abs() < 1e-12);
        assert!((boolean_probability(&p, &q("a/b/d")) - 0.0).abs() < 1e-12);
        assert!((boolean_probability(&p, &q("a//c")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mux_choice_probability() {
        let p = parse_pdocument("a[mux(0.3: b, 0.6: c)]").unwrap();
        assert!((boolean_probability(&p, &q("a/b")) - 0.3).abs() < 1e-12);
        assert!((boolean_probability(&p, &q("a/c")) - 0.6).abs() < 1e-12);
        // mutually exclusive
        assert!((boolean_conjunction_probability(&p, &[q("a/b"), q("a/c")]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ind_independence() {
        let p = parse_pdocument("a[ind(0.5: b, 0.4: c)]").unwrap();
        let both = boolean_conjunction_probability(&p, &[q("a/b"), q("a/c")]);
        assert!((both - 0.2).abs() < 1e-12);
    }

    #[test]
    fn correlated_conjunction_not_product() {
        // b and c behind the same mux branch: fully correlated.
        let p = parse_pdocument("a[mux(0.5: x[b, c])]").unwrap();
        let pb = boolean_probability(&p, &q("a/x/b"));
        let pc = boolean_probability(&p, &q("a/x/c"));
        let joint = boolean_conjunction_probability(&p, &[q("a/x/b"), q("a/x/c")]);
        assert!((pb - 0.5).abs() < 1e-12);
        assert!((pc - 0.5).abs() < 1e-12);
        assert!((joint - 0.5).abs() < 1e-12);
        assert!((joint - pb * pc).abs() > 0.1);
    }

    #[test]
    fn descendant_through_distributional_chain() {
        let p = parse_pdocument("a[mux(0.8: b[mux(0.5: c)])]").unwrap();
        assert!((boolean_probability(&p, &q("a//c")) - 0.4).abs() < 1e-12);
        assert!((boolean_probability(&p, &q("a//b")) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn pinning_selects_one_node() {
        // Two b nodes; pin the one behind the mux.
        let p = parse_pdocument("a#0[b#1, mux#2(0.25: b#3)]").unwrap();
        let forest = Forest::of_pdocument(&p, p.root());
        let pattern = q("a/b");
        let mut kernel = Kernel::default();
        let fixed = |n| Conjunction::pinned(&[(&pattern, n)]);
        assert!((kernel.probability(&forest, 0, &fixed(NodeId(3))) - 0.25).abs() < 1e-12);
        assert!((kernel.probability(&forest, 0, &fixed(NodeId(1))) - 1.0).abs() < 1e-12);
        // One run-pinned conjunction, its pin named by each run.
        let marked = Conjunction::marked(&pattern);
        for (n, want) in [(3, 0.25), (1, 1.0), (0, 0.0)] {
            let got = kernel.probability_with_pin(&forest, 0, &marked, NodeId(n));
            assert!((got - want).abs() < 1e-12, "pin on n{n}: {got}");
        }
    }

    #[test]
    #[should_panic(expected = "needs its pin's node")]
    fn a_run_pinned_conjunction_needs_a_pin() {
        let p = parse_pdocument("a#0[b#1]").unwrap();
        let forest = Forest::of_pdocument(&p, p.root());
        Kernel::default().probability(&forest, 0, &Conjunction::marked(&q("a/b")));
    }

    #[test]
    #[should_panic(expected = "only a run-pinned conjunction")]
    fn a_fixed_conjunction_takes_no_pin() {
        let p = parse_pdocument("a#0[b#1]").unwrap();
        let forest = Forest::of_pdocument(&p, p.root());
        let fixed = Conjunction::pinned(&[(&q("a/b"), NodeId(1))]);
        Kernel::default().probability_with_pin(&forest, 0, &fixed, NodeId(1));
    }

    #[test]
    fn a_lent_kernel_is_not_shared() {
        let shared = SharedKernel::default();
        let first = shared.lend();
        assert!(matches!(first, Lent::Shared(_)));
        assert!(matches!(shared.lend(), Lent::Own(_)), "in use: a new one");
        drop(first);
        assert!(matches!(shared.lend(), Lent::Shared(_)), "returned on drop");
    }

    #[test]
    fn max_world_contains_all_ordinary_nodes() {
        let p = parse_pdocument("a#0[mux#1(0.5: b#2[c#3]), ind#4(0.1: d#5)]").unwrap();
        let d = max_world(&p);
        for n in [0u32, 2, 3, 5] {
            assert!(d.contains(NodeId(n)));
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.parent(NodeId(5)), Some(NodeId(0)));
    }

    #[test]
    fn rooted_evaluation_is_bit_identical_to_the_subtree_copy() {
        let p = parse_pdocument(
            "r#0[a#1[mux#2(0.4: b#3[ind#4(0.5: c#5, 0.3: d#6)], 0.35: b#7[c#8])], a#9[b#10]]",
        )
        .unwrap();
        let sub = p.subtree(NodeId(1));
        let pats = [q("a/b[c]"), q("a//d"), q("a/b")];
        for pat in &pats {
            assert_eq!(
                boolean_probability_at(&p, NodeId(1), pat).to_bits(),
                boolean_probability(&sub, pat).to_bits(),
                "{pat}"
            );
        }
        assert_eq!(
            boolean_conjunction_probability_at(&p, NodeId(1), &pats).to_bits(),
            boolean_conjunction_probability(&sub, &pats).to_bits()
        );
        // The rooted columns hold exactly the subtree.
        assert_eq!(
            Forest::of_pdocument(&p, NodeId(1)),
            Forest::of_pdocument(&sub, NodeId(1))
        );
    }

    #[test]
    fn matches_exact_enumeration_small() {
        let p = parse_pdocument("a[mux(0.4: b[ind(0.5: c, 0.3: d)], 0.4: b[c])]").unwrap();
        let space = p.px_space();
        for pat in ["a/b", "a/b[c]", "a/b[c][d]", "a//c", "a//d"] {
            let query = q(pat);
            let dp = boolean_probability(&p, &query);
            let exact = space.probability_where(|w| pxv_tpq::embed::matches(&query, w));
            assert!((dp - exact).abs() < 1e-9, "{pat}: dp={dp} exact={exact}");
        }
    }
}
