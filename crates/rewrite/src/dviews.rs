//! View decompositions (§5.3, Steps 1–4): breaking views into pairwise
//! c-independent *d-views* whose conditional probabilities become the
//! unknowns of the `S(q,V)` system.
//!
//! For `v = ft // m // lt` (first token, middle, last token):
//!
//! * Step 1: one query per main-branch node of `ft` and `lt` keeping only
//!   that node's predicates, plus one "bulk" query keeping only the middle
//!   part's predicates (middle anchors are ambiguous on the root-to-answer
//!   path, so they are kept together);
//! * Step 2: merge c-dependent pairs by intersection until a fixpoint
//!   (first/last-token anchors are forced, so predicate union is the
//!   intersection — see `merge_same_skeleton`);
//! * Step 3: intersect with `mb(q)` (union-free reduction when possible;
//!   omitted on blow-up, which keeps the system sound, §5.3 proof);
//! * Step 4: group equivalent queries across views into shared d-views.

use crate::cindep::c_independent;
use pxv_tpq::containment::{equivalent, minimize};
use pxv_tpq::intersect::{intersect_to_tp, merge_same_skeleton};
use pxv_tpq::pattern::TreePattern;

/// Steps 1–3 for a single view pattern (also applied to the query itself
/// to obtain `Wq`).
fn decompose(v: &TreePattern, q: &TreePattern) -> Vec<TreePattern> {
    let ranges = v.token_ranges();
    let (ft_lo, ft_hi) = ranges[0];
    let (lt_lo, lt_hi) = *ranges.last().expect("at least one token");
    let mb = v.main_branch();

    // Step 1(i): first/last token nodes, one query each.
    let mut ws: Vec<TreePattern> = Vec::new();
    let mut node_depths: Vec<usize> = (ft_lo..=ft_hi).collect();
    if ranges.len() > 1 {
        node_depths.extend(lt_lo..=lt_hi);
    }
    for d in node_depths {
        let target = mb[d - 1];
        ws.push(v.filter_predicates(|n, _| n == target));
    }
    // Step 1(ii): the middle in bulk (empty middle ⇒ bare skeleton).
    if ranges.len() > 2 {
        let mid_lo = ranges[1].0;
        let mid_hi = ranges[ranges.len() - 2].1;
        ws.push(v.filter_predicates(|n, _| {
            let d = v.mb_depth(n).expect("main-branch anchor");
            (mid_lo..=mid_hi).contains(&d)
        }));
    } else if ranges.len() == 2 {
        ws.push(v.main_branch_only());
    }

    // Step 2: fixpoint merge of c-dependent pairs.
    loop {
        let mut merged = None;
        'search: for i in 0..ws.len() {
            for j in i + 1..ws.len() {
                if !c_independent(&ws[i], &ws[j]) {
                    let m = merge_same_skeleton(&ws[i], &ws[j])
                        .expect("decomposition queries share the view skeleton");
                    merged = Some((i, j, m));
                    break 'search;
                }
            }
        }
        match merged {
            Some((i, j, m)) => {
                ws.remove(j);
                ws.remove(i);
                ws.push(m);
            }
            None => break,
        }
    }

    // Step 3: intersect with mb(q) when the reduction is union-free.
    let mbq = q.main_branch_only();
    ws = ws
        .into_iter()
        .map(|w| intersect_to_tp(&w, &mbq, 2_000).unwrap_or(w))
        .map(|w| minimize(&w))
        .collect();
    // Path-implied d-views (mb(q) ⊑ w) have conditional probability
    // identically 1 for any candidate answer node — they are constants,
    // not unknowns (the paper writes Pr(n ∈ v4(P)) = Pr(n ∈ P) directly in
    // Example 16). Keeping them as variables would spuriously weaken the
    // system.
    ws.retain(|w| !pxv_tpq::containment::contained_in(&mbq, w));
    // Dedup within the view (identical restrictions collapse).
    let mut out: Vec<TreePattern> = Vec::new();
    for w in ws {
        if !out.iter().any(|o| o.canonical_key() == w.canonical_key()) {
            out.push(w);
        }
    }
    out
}

/// The full decomposition of a view set (Step 4 included).
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// All distinct d-views `w1 … ws`.
    pub dviews: Vec<TreePattern>,
    /// `Wi ⊆ {w1 … ws}` per input view (indices into `dviews`).
    pub per_view: Vec<Vec<usize>>,
    /// `Wq`: the query's own d-views.
    pub wq: Vec<usize>,
}

/// Decomposes every view and the query, sharing d-views across views by
/// equivalence (Step 4).
pub fn decompose_all(q: &TreePattern, views: &[TreePattern]) -> Decomposition {
    let mut dviews: Vec<TreePattern> = Vec::new();
    let mut intern = |w: TreePattern| -> usize {
        if let Some(i) = dviews.iter().position(|d| equivalent(d, &w)) {
            i
        } else {
            dviews.push(w);
            dviews.len() - 1
        }
    };
    let mut per_view = Vec::with_capacity(views.len());
    for v in views {
        let mut set: Vec<usize> = decompose(v, q).into_iter().map(&mut intern).collect();
        set.sort_unstable();
        set.dedup();
        per_view.push(set);
    }
    let mut wq: Vec<usize> = decompose(q, q).into_iter().map(&mut intern).collect();
    wq.sort_unstable();
    wq.dedup();
    Decomposition {
        dviews,
        per_view,
        wq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_tpq::parse::parse_pattern;

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    #[test]
    fn example_16_decomposition() {
        // q = a[1]/b[2]/c[3]/d with views v1..v4: the d-views are the
        // per-predicate restrictions of mb(q), and v4 decomposes to mb(q).
        let q = p("a[1]/b[2]/c[3]/d");
        let views = vec![
            p("a[1]/b/c[3]/d"),
            p("a/b[2]/c[3]/d"),
            p("a[1]/b[2]/c/d"),
            p("a//d"),
        ];
        let d = decompose_all(&q, &views);
        // Distinct d-views: [1]-only, [2]-only, [3]-only. Path-implied
        // restrictions (the bare mb(q)) are constants, not variables.
        assert_eq!(
            d.dviews.len(),
            3,
            "dviews: {:?}",
            d.dviews.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
        // v1 = {w1, w3}; v2 = {w2, w3}; v3 = {w1, w2}; v4 = {} (pure
        // appearance view, the paper's Pr(n ∈ v4(P)) = Pr(n ∈ P)).
        assert_eq!(d.per_view[0].len(), 2);
        assert_eq!(d.per_view[1].len(), 2);
        assert_eq!(d.per_view[2].len(), 2);
        assert_eq!(d.per_view[3].len(), 0);
        // Wq covers all three predicate variables.
        assert_eq!(d.wq.len(), 3);
    }

    #[test]
    fn single_token_view_decomposes_per_node() {
        let q = p("a[x]/b[y]/c");
        let v = p("a[x]/b[y]/c");
        let ws = decompose(&v, &q);
        // x-only and y-only; the bare skeleton is path-implied and folded
        // into the appearance probability.
        let strs: Vec<String> = ws.iter().map(|w| w.to_string()).collect();
        assert!(strs.contains(&"a[x]/b/c".to_string()), "{strs:?}");
        assert!(strs.contains(&"a/b[y]/c".to_string()), "{strs:?}");
        assert_eq!(ws.len(), 2, "{strs:?}");
    }

    #[test]
    fn dependent_predicates_merge() {
        // Two predicates on the same node are c-dependent: merged into one
        // d-view carrying both.
        let q = p("a[x][y]/b");
        let v = p("a[x][y]/b");
        let ws = decompose(&v, &q);
        let strs: Vec<String> = ws.iter().map(|w| w.to_string()).collect();
        assert!(
            strs.iter().any(|s| s.contains('x') && s.contains('y')),
            "{strs:?}"
        );
    }

    #[test]
    fn step3_narrows_to_query_path() {
        // View a//d over q = a/b/c/d: the bare view skeleton intersects
        // with mb(q) to a/b/c/d.
        let q = p("a[1]/b/c/d");
        let ws = decompose(&p("a//d"), &q);
        // a//d narrows to a/b/c/d, which is path-implied: no variables
        // remain — the view contributes exactly Pr(n ∈ P).
        assert!(
            ws.is_empty(),
            "{:?}",
            ws.iter().map(|w| w.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn middle_predicates_kept_in_bulk() {
        // v = a[x]//m1[w]/m2[z]//b[y]: middle token predicates form one
        // bulk d-view.
        let q = p("a[x]//m1[w]/m2[z]//b[y]");
        let ws = decompose(&q, &q);
        let strs: Vec<String> = ws.iter().map(|w| w.to_string()).collect();
        // Bulk query holds both w and z.
        assert!(
            strs.iter()
                .any(|s| s.contains("[w]") && s.contains("[z]") && !s.contains("[x]")),
            "{strs:?}"
        );
        // x and y stay separate.
        assert!(strs.iter().any(|s| s.contains("[x]") && !s.contains("[w]")));
        assert!(strs.iter().any(|s| s.contains("[y]") && !s.contains("[z]")));
    }
}
