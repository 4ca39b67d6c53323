//! Extended skeletons (§5.1): the fragment of TP for which TP∩ equivalence
//! tests are tractable (\[10\]; Corollary 3 of the paper).
//!
//! A pattern is an extended skeleton iff for every main-branch node `n` and
//! every `//`-subpredicate `st` of `n` (a predicate subtree hanging by a
//! `//`-edge off a linear `/`-path coming from `n`), there is **no mapping,
//! in either direction,** between the incoming `/`-path of `st` and the
//! `/`-path following `n` on the main branch — where the empty path maps
//! into any path. For label paths anchored at the same node, a mapping
//! exists iff one label sequence is a prefix of the other.
//!
//! Examples (from the paper): `a[b//c//d]/e//d` and `a[b//c]/d//e` are
//! extended skeletons; `a[b//c]/b//d`, `a[b//c]//d`, `a[.//b]/c//d` and
//! `a[.//b]//c` are not.

use crate::pattern::{Axis, QNodeId, TreePattern};
use pxv_pxml::Label;

/// The labels of the `/`-run on the main branch immediately following `n`
/// (empty if the next main-branch edge is `//` or `n` is the output).
fn mb_child_run(q: &TreePattern, n: QNodeId) -> Vec<Label> {
    let mb = q.main_branch();
    let pos = mb.iter().position(|&m| m == n).expect("mb node");
    let mut run = Vec::new();
    for &m in &mb[pos + 1..] {
        if q.axis(m) == Axis::Child {
            run.push(q.label(m));
        } else {
            break;
        }
    }
    run
}

/// One sequence is a prefix of the other (the "mapping in either
/// direction" of the definition; empty maps into anything).
fn one_prefix_of_other(a: &[Label], b: &[Label]) -> bool {
    let k = a.len().min(b.len());
    a[..k] == b[..k]
}

/// Collects, for each main-branch node `n`, the incoming `/`-paths of all
/// `//`-subpredicates of `n`: walks predicate subtrees from `n` along
/// `/`-edges; every `//`-edge found at the end of such a walk contributes
/// the label path from (excluding) `n` to the `//`-edge's upper endpoint.
fn descendant_subpredicate_paths(q: &TreePattern, n: QNodeId) -> Vec<Vec<Label>> {
    let mut out = Vec::new();
    // DFS along /-connected predicate nodes, recording the label path.
    let mut stack: Vec<(QNodeId, Vec<Label>)> = Vec::new();
    for c in q.predicate_children(n) {
        match q.axis(c) {
            Axis::Descendant => out.push(Vec::new()), // [.//st]: empty incoming path
            Axis::Child => stack.push((c, vec![q.label(c)])),
        }
    }
    while let Some((x, path)) = stack.pop() {
        for &c in q.children(x) {
            match q.axis(c) {
                Axis::Descendant => out.push(path.clone()),
                Axis::Child => {
                    let mut p2 = path.clone();
                    p2.push(q.label(c));
                    stack.push((c, p2));
                }
            }
        }
    }
    out
}

/// Whether `q` is an extended skeleton.
pub fn is_extended_skeleton(q: &TreePattern) -> bool {
    for n in q.main_branch() {
        let run = mb_child_run(q, n);
        for incoming in descendant_subpredicate_paths(q, n) {
            if one_prefix_of_other(&incoming, &run) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    #[test]
    fn paper_positive_examples() {
        assert!(is_extended_skeleton(&p("a[b//c//d]/e//d")));
        assert!(is_extended_skeleton(&p("a[b//c]/d//e")));
    }

    #[test]
    fn paper_negative_examples() {
        assert!(!is_extended_skeleton(&p("a[b//c]/b//d")));
        assert!(!is_extended_skeleton(&p("a[b//c]//d")));
        assert!(!is_extended_skeleton(&p("a[.//b]/c//d")));
        assert!(!is_extended_skeleton(&p("a[.//b]//c")));
    }

    #[test]
    fn slash_only_patterns_are_skeletons() {
        // The fragment does not restrict /-only predicates or mb //-edges.
        assert!(is_extended_skeleton(&p("a[b/c][d]/e/f")));
        assert!(is_extended_skeleton(&p("a//b//c[d/e]")));
        assert!(is_extended_skeleton(&p(
            "IT-personnel//person[name/Rick]/bonus[laptop]"
        )));
    }

    #[test]
    fn nested_descendant_subpredicates() {
        // //-edge behind another //-edge is not /-reachable from n: allowed.
        assert!(is_extended_skeleton(&p("a[b//c[.//d]]/e//f")));
        // but the first hop b//c with following run b is still checked:
        assert!(!is_extended_skeleton(&p("a[b//c]/b/x")));
    }

    #[test]
    fn prefix_relation_both_directions() {
        // incoming path (b,c) vs following run (b): run is prefix => reject.
        assert!(!is_extended_skeleton(&p("a[b/c//d]/b")));
        // incoming (b) vs run (b,c): incoming is prefix => reject.
        assert!(!is_extended_skeleton(&p("a[b//d]/b/c")));
        // incoming (b,x) vs run (b,c): diverge at 2nd => accept.
        assert!(is_extended_skeleton(&p("a[b/x//d]/b/c")));
    }
}
