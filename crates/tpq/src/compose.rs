//! Compensation and unfolding (§2 "View compensation", §3).
//!
//! `comp(q1, q2)` deletes the first symbol of `xpath(q2)` and concatenates
//! the rest to `xpath(q1)`: structurally, `q2`'s root is merged *into*
//! `out(q1)` (which acquires `q2`'s root predicates and continuation), and
//! the output moves to the image of `out(q2)`.
//!
//! A deterministic TP-rewriting is `comp(doc(v)/lbl(v), c)` for a
//! compensation `c`; unfolding replaces the `doc(v)/lbl(v)` access by the
//! view definition, i.e. `unfold = comp(v, c)` (Fact 1).

use crate::pattern::{QNodeId, TreePattern};

/// The result of compensating `q1` with `q2` (`comp(q1, q2)`).
///
/// Requires `lbl(root(q2)) = lbl(out(q1))` — the compensation starts where
/// `q1`'s output is. Example: `comp(a/b, b[c][d]/e) = a/b[c][d]/e`.
///
/// # Panics
/// If the labels do not agree.
pub fn comp(q1: &TreePattern, q2: &TreePattern) -> TreePattern {
    assert_eq!(
        q2.label(q2.root()),
        q1.label(q1.output()),
        "comp: root of compensation must match output of base"
    );
    let mut out = q1.clone();
    let anchor = out.output();
    // Graft each child subtree of q2's root under q1's output, tracking the
    // image of q2's output node.
    let mut new_output = if q2.output() == q2.root() {
        anchor
    } else {
        QNodeId(u32::MAX)
    };
    let mut map = vec![QNodeId(u32::MAX); q2.len()];
    map[q2.root().0 as usize] = anchor;
    let mut stack = vec![q2.root()];
    while let Some(n) = stack.pop() {
        let d = map[n.0 as usize];
        for &c in q2.children(n) {
            let dc = out.add_child(d, q2.axis(c), q2.label(c));
            map[c.0 as usize] = dc;
            if c == q2.output() {
                new_output = dc;
            }
            stack.push(c);
        }
    }
    assert_ne!(new_output, QNodeId(u32::MAX), "output image not found");
    out.set_output(new_output);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent;
    use crate::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    #[test]
    fn paper_compensation_example() {
        // §2: comp(a/b, b[c][d]/e) = a/b[c][d]/e.
        let got = comp(&p("a/b"), &p("b[c][d]/e"));
        assert_eq!(got.canonical_key(), p("a/b[c][d]/e").canonical_key());
    }

    #[test]
    fn fact_1_for_running_example() {
        // comp(v1BON, bonus[laptop]) ≡ qRBON.
        let v1 = p("IT-personnel//person[name/Rick]/bonus");
        let c = p("bonus[laptop]");
        let q = p("IT-personnel//person[name/Rick]/bonus[laptop]");
        let unfolded = comp(&v1, &c);
        assert!(equivalent(&unfolded, &q));
    }

    #[test]
    fn comp_with_trivial_compensation_is_identity() {
        let v = p("a//b[c]/d");
        let c = p("d");
        let got = comp(&v, &c);
        assert!(equivalent(&got, &v));
        assert_eq!(got.output_label().name(), "d");
    }

    #[test]
    fn comp_extends_main_branch() {
        let v = p("a/b");
        let c = p("b/c//d[e]");
        let got = comp(&v, &c);
        assert_eq!(got.mb_len(), 4);
        assert_eq!(got.output_label().name(), "d");
        assert_eq!(got.canonical_key(), p("a/b/c//d[e]").canonical_key());
    }

    #[test]
    fn comp_with_predicates_on_join_node() {
        let v = p("a/b[x]");
        let c = p("b[y]/z");
        let got = comp(&v, &c);
        assert_eq!(got.canonical_key(), p("a/b[x][y]/z").canonical_key());
    }

    #[test]
    #[should_panic(expected = "comp: root of compensation")]
    fn comp_label_mismatch_panics() {
        let _ = comp(&p("a/b"), &p("c/d"));
    }
}
