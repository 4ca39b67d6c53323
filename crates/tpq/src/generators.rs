//! Random and parametric tree-pattern generators for tests and benches.

use crate::pattern::{Axis, QNodeId, TreePattern};
use pxv_pxml::Symbol as Label;
use rand::Rng;

/// Configuration for [`random_pattern`].
#[derive(Clone, Debug)]
pub struct RandomPatternConfig {
    /// Main-branch length (number of nodes, ≥ 1).
    pub mb_len: usize,
    /// Probability of a `//`-edge on the main branch.
    pub desc_prob: f64,
    /// Expected number of predicates per main-branch node.
    pub preds_per_node: f64,
    /// Maximum depth of predicate subtrees.
    pub pred_depth: usize,
    /// Label pool.
    pub labels: Vec<String>,
}

impl Default for RandomPatternConfig {
    fn default() -> Self {
        RandomPatternConfig {
            mb_len: 3,
            desc_prob: 0.4,
            preds_per_node: 0.8,
            pred_depth: 2,
            labels: ["a", "b", "c", "d", "e"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

fn rand_label<R: Rng + ?Sized>(cfg: &RandomPatternConfig, rng: &mut R) -> Label {
    Label::new(&cfg.labels[rng.gen_range(0..cfg.labels.len())])
}

fn grow_predicate<R: Rng + ?Sized>(
    q: &mut TreePattern,
    at: QNodeId,
    depth: usize,
    cfg: &RandomPatternConfig,
    rng: &mut R,
) {
    if depth == 0 {
        return;
    }
    let n = rng.gen_range(0..=1usize);
    for _ in 0..n {
        let axis = if rng.gen::<f64>() < cfg.desc_prob {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let c = q.add_child(at, axis, rand_label(cfg, rng));
        grow_predicate(q, c, depth - 1, cfg, rng);
    }
}

/// Generates a random tree pattern with the given shape parameters.
pub fn random_pattern<R: Rng + ?Sized>(cfg: &RandomPatternConfig, rng: &mut R) -> TreePattern {
    let mut q = TreePattern::leaf(rand_label(cfg, rng));
    let mut cur = q.root();
    let mut mb = vec![cur];
    for _ in 1..cfg.mb_len {
        let axis = if rng.gen::<f64>() < cfg.desc_prob {
            Axis::Descendant
        } else {
            Axis::Child
        };
        cur = q.add_child(cur, axis, rand_label(cfg, rng));
        mb.push(cur);
    }
    q.set_output(cur);
    for &n in &mb {
        let mut budget = cfg.preds_per_node;
        while rng.gen::<f64>() < budget {
            budget -= 1.0;
            let axis = if rng.gen::<f64>() < cfg.desc_prob {
                Axis::Descendant
            } else {
                Axis::Child
            };
            let c = q.add_child(n, axis, rand_label(cfg, rng));
            grow_predicate(&mut q, c, cfg.pred_depth.saturating_sub(1), cfg, rng);
        }
    }
    q
}

/// A linear chain `l0 e1 l1 e2 l2 …` where `edges[i]` connects `labels[i]`
/// to `labels[i+1]`.
pub fn chain(labels: &[&str], edges: &[Axis]) -> TreePattern {
    assert_eq!(labels.len(), edges.len() + 1);
    let mut q = TreePattern::leaf(Label::new(labels[0]));
    let mut cur = q.root();
    for (l, &e) in labels[1..].iter().zip(edges) {
        cur = q.add_child(cur, e, Label::new(l));
    }
    q.set_output(cur);
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_patterns_are_well_formed() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = RandomPatternConfig::default();
        for _ in 0..100 {
            let q = random_pattern(&cfg, &mut rng);
            assert_eq!(q.mb_len(), cfg.mb_len);
            assert!(q.len() < 64);
            // Round trip through the parser.
            let q2 = crate::parse::parse_pattern(&q.to_string()).unwrap();
            assert_eq!(q.canonical_key(), q2.canonical_key());
        }
    }

    #[test]
    fn chain_builders() {
        let q = chain(&["a", "b", "c"], &[Axis::Descendant, Axis::Child]);
        assert_eq!(q.to_string(), "a//b/c");
    }
}
