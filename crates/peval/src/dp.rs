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
//! `Pr(n ∈ q(P))` reduces to a Boolean match by *pinning*: attach a fresh
//! `⟨t⟩`-labeled child below `n` and extend `out(q)` with a `/`-child
//! `⟨t⟩`; the pinned pattern matches exactly when some embedding sends
//! `out(q)` to `n`.

use pxv_pxml::{Document, Label, NodeId, PDocument, PKind};
use pxv_tpq::pattern::{Axis, QNodeId, TreePattern};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Joint event state: bit `2j` = `A(x_j)`, bit `2j+1` = `B(x_j)` over
/// global query-node indices `j`.
type State = u128;

/// Deterministic hasher for [`Dist`] keys. Float accumulation in this
/// module iterates `Dist` maps (OR-convolution, mixing), so iteration
/// order — and with it the ULP rounding of the sums — must not vary
/// between map instances. The std `RandomState` seeds every map
/// differently, which made two evaluations of the same query differ in
/// the last bits; the serving layer's bit-identical answers forbid that.
#[derive(Default)]
struct StateHasher(u64);

impl Hasher for StateHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u128(&mut self, v: u128) {
        // Fibonacci-style mix of both halves; states are sparse bitmasks,
        // so the multiply spreads low-bit patterns across the table.
        for half in [v as u64, (v >> 64) as u64] {
            self.0 = (self.0 ^ half).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.0 ^= self.0 >> 32;
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse distribution over states (deterministic iteration order given
/// the same insertion history — see [`StateHasher`]).
type Dist = HashMap<State, f64, BuildHasherDefault<StateHasher>>;

/// A conjunction of Boolean patterns, with precomputed global bit indices.
struct Conjunction<'a> {
    patterns: &'a [TreePattern],
    /// Global index of pattern `i` node `x` = `offset[i] + x.0`.
    offsets: Vec<u32>,
    /// For every global node index: (pattern, node id).
    nodes: Vec<(usize, QNodeId)>,
}

impl<'a> Conjunction<'a> {
    fn new(patterns: &'a [TreePattern]) -> Conjunction<'a> {
        let mut offsets = Vec::with_capacity(patterns.len());
        let mut nodes = Vec::new();
        let mut total = 0u32;
        for (i, p) in patterns.iter().enumerate() {
            offsets.push(total);
            for x in p.node_ids() {
                nodes.push((i, x));
            }
            total += p.len() as u32;
        }
        assert!(
            total <= 64,
            "conjunction too large for the 128-bit state encoding ({total} query nodes)"
        );
        Conjunction {
            patterns,
            offsets,
            nodes,
        }
    }

    fn gid(&self, pattern: usize, x: QNodeId) -> u32 {
        self.offsets[pattern] + x.0
    }

    fn a_bit(&self, g: u32) -> State {
        1u128 << (2 * g)
    }

    fn b_bit(&self, g: u32) -> State {
        1u128 << (2 * g + 1)
    }
}

/// OR-convolution of two independent event distributions.
fn or_convolve(d1: &Dist, d2: &Dist) -> Dist {
    if d1.len() == 1 {
        if let Some((&0, &p)) = d1.iter().next() {
            if (p - 1.0).abs() < 1e-15 {
                return d2.clone();
            }
        }
    }
    let mut out = dist_with_capacity(d1.len() * d2.len());
    for (&s1, &p1) in d1 {
        for (&s2, &p2) in d2 {
            *out.entry(s1 | s2).or_insert(0.0) += p1 * p2;
        }
    }
    out
}

/// A `Dist` with capacity `n` and the deterministic hasher.
fn dist_with_capacity(n: usize) -> Dist {
    Dist::with_capacity_and_hasher(n, Default::default())
}

fn delta_zero() -> Dist {
    let mut d = dist_with_capacity(1);
    d.insert(0, 1.0);
    d
}

/// Mixes `d` with the empty distribution: kept with probability `p`.
fn keep_with(d: Dist, p: f64) -> Dist {
    let mut out = dist_with_capacity(d.len() + 1);
    for (s, q) in d {
        *out.entry(s).or_insert(0.0) += p * q;
    }
    *out.entry(0).or_insert(0.0) += 1.0 - p;
    out
}

/// Computes the (A, B) event distribution contributed by p-document node
/// `n` to its closest ordinary ancestor.
fn message(pdoc: &PDocument, conj: &Conjunction<'_>, n: NodeId) -> Dist {
    match pdoc.kind(n) {
        PKind::Ordinary(label) => ordinary_message(pdoc, conj, n, *label),
        PKind::Mux => {
            let mut out = Dist::default();
            let mut mass = 0.0;
            for &c in pdoc.children(n) {
                let p = pdoc.child_prob(n, c);
                mass += p;
                for (s, q) in message(pdoc, conj, c) {
                    *out.entry(s).or_insert(0.0) += p * q;
                }
            }
            *out.entry(0).or_insert(0.0) += (1.0 - mass).max(0.0);
            out
        }
        PKind::Ind => {
            let mut acc = delta_zero();
            for &c in pdoc.children(n) {
                let p = pdoc.child_prob(n, c);
                let msg = keep_with(message(pdoc, conj, c), p);
                acc = or_convolve(&acc, &msg);
            }
            acc
        }
        PKind::Det => {
            let mut acc = delta_zero();
            for &c in pdoc.children(n) {
                let msg = message(pdoc, conj, c);
                acc = or_convolve(&acc, &msg);
            }
            acc
        }
        PKind::Exp(dist) => {
            let kids = pdoc.children(n).to_vec();
            let msgs: Vec<Dist> = kids.iter().map(|&c| message(pdoc, conj, c)).collect();
            let mut out = Dist::default();
            for &(mask, pm) in dist {
                let mut acc = delta_zero();
                for (i, msg) in msgs.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        acc = or_convolve(&acc, msg);
                    }
                }
                for (s, q) in acc {
                    *out.entry(s).or_insert(0.0) += pm * q;
                }
            }
            out
        }
    }
}

/// Message of an ordinary node: combine children, then derive `A_v`/`B_v`.
fn ordinary_message(pdoc: &PDocument, conj: &Conjunction<'_>, v: NodeId, label: Label) -> Dist {
    let mut children_dist = delta_zero();
    for &c in pdoc.children(v) {
        let msg = message(pdoc, conj, c);
        children_dist = or_convolve(&children_dist, &msg);
    }
    // For each aggregated child state, compute this node's (A, B) state.
    let mut out = dist_with_capacity(children_dist.len());
    for (s, p) in children_dist {
        let mut ns: State = 0;
        for (g, &(pi, x)) in conj.nodes.iter().enumerate() {
            let g = g as u32;
            let q = &conj.patterns[pi];
            debug_assert_eq!(conj.gid(pi, x), g);
            let mut a = q.label(x) == label;
            if a {
                for &y in q.children(x) {
                    let gy = conj.gid(pi, y);
                    let ok = match q.axis(y) {
                        Axis::Child => s & conj.a_bit(gy) != 0,
                        Axis::Descendant => s & conj.b_bit(gy) != 0,
                    };
                    if !ok {
                        a = false;
                        break;
                    }
                }
            }
            let b = a || (s & conj.b_bit(g) != 0);
            if a {
                ns |= conj.a_bit(g);
            }
            if b {
                ns |= conj.b_bit(g);
            }
        }
        *out.entry(ns).or_insert(0.0) += p;
    }
    out
}

/// Probability that **all** patterns match the random document (with their
/// roots at the document root).
pub fn boolean_conjunction_probability(pdoc: &PDocument, patterns: &[TreePattern]) -> f64 {
    boolean_conjunction_probability_at(pdoc, pdoc.root(), patterns)
}

/// [`boolean_conjunction_probability`] over the p-subdocument `P̂_root`
/// (`root` must be ordinary), evaluated in place: the DP runs from `root`
/// instead of copying the subtree out first. `PDocument::subtree` keeps
/// child order and edge probabilities, so this performs the same float
/// operations in the same order as evaluating the copy — the results are
/// bit-identical.
pub fn boolean_conjunction_probability_at(
    pdoc: &PDocument,
    root: NodeId,
    patterns: &[TreePattern],
) -> f64 {
    if patterns.is_empty() {
        return 1.0;
    }
    let conj = Conjunction::new(patterns);
    let root_dist = message(pdoc, &conj, root);
    let mut need: State = 0;
    for (i, p) in patterns.iter().enumerate() {
        need |= conj.a_bit(conj.gid(i, p.root()));
    }
    root_dist
        .iter()
        .filter(|&(&s, _)| s & need == need)
        .map(|(_, &p)| p)
        .sum()
}

/// Probability that a single Boolean pattern matches.
pub fn boolean_probability(pdoc: &PDocument, q: &TreePattern) -> f64 {
    boolean_probability_at(pdoc, pdoc.root(), q)
}

/// [`boolean_probability`] over the p-subdocument `P̂_root`, in place (see
/// [`boolean_conjunction_probability_at`]).
pub fn boolean_probability_at(pdoc: &PDocument, root: NodeId, q: &TreePattern) -> f64 {
    boolean_conjunction_probability_at(pdoc, root, std::slice::from_ref(q))
}

/// Fresh pin label for a target node.
pub fn pin_label(tag: usize) -> Label {
    Label::new(&format!("\u{27e8}t{tag}\u{27e9}"))
}

/// Returns a copy of `pdoc` with a certain `⟨t⟩`-labeled ordinary child
/// below `n`, and the pin label used.
pub fn pin_node(pdoc: &PDocument, n: NodeId, tag: usize) -> (PDocument, Label) {
    let label = pin_label(tag);
    let mut p = pdoc.clone();
    p.add_ordinary(n, label, 1.0);
    (p, label)
}

/// Returns `q` extended with a `/`-child `label` under its output node.
pub fn pin_pattern(q: &TreePattern, label: Label) -> TreePattern {
    let mut p = q.clone();
    p.add_child(q.output(), Axis::Child, label);
    p
}

/// The *maximal world*: the document keeping every ordinary node.
/// TP matching is monotone, so any node selected in some world is selected
/// here. Candidate search embeds on the same tree laid out in columns
/// (`pxv_tpq::embed::Skeleton::of_pdocument`) without building a
/// `Document`; this walk stays as its independent reference.
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
        let (pinned_doc, label) = pin_node(&p, NodeId(3), 0);
        let pinned_q = pin_pattern(&q("a/b"), label);
        let pr = boolean_probability(&pinned_doc, &pinned_q);
        assert!((pr - 0.25).abs() < 1e-12);
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
        // The rooted skeleton an extension embeds on is the subtree's
        // maximal world: the same nodes, labels and parents.
        let edges = |sk: &pxv_tpq::embed::Skeleton| {
            let mut e: Vec<_> = (0..sk.len())
                .map(|i| {
                    let (n, label, parent) = sk.node(i);
                    (n, label.name(), parent.map(|p| sk.node(p).0))
                })
                .collect();
            e.sort();
            e
        };
        let mut at = pxv_tpq::embed::Skeleton::default();
        at.push_pdocument(&p, NodeId(1), Some);
        let copied = pxv_tpq::embed::Skeleton::of_document(&max_world(&sub));
        assert_eq!(edges(&at), edges(&copied));
        assert_eq!(at.len(), 6);
        assert!(edges(&at).contains(&(NodeId(8), "c", Some(NodeId(7)))));
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
