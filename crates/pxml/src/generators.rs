//! Synthetic workload generators.
//!
//! The paper has no datasets (it is a theory paper); these generators
//! provide (i) scalable versions of the running `personnel` example used by
//! the motivating scenarios, and (ii) random p-documents with controlled
//! distributional density used by the property and differential tests.

use crate::document::NodeId;
use crate::label::Label;
use crate::pdocument::{PDocument, PKind};
use rand::Rng;

/// Configuration for [`random_pdocument`].
#[derive(Clone, Debug)]
pub struct RandomPDocConfig {
    /// Maximum tree depth in ordinary nodes (root has depth 1).
    pub max_depth: usize,
    /// Maximum ordinary children per ordinary node.
    pub max_children: usize,
    /// Label alphabet; labels are drawn uniformly.
    pub labels: Vec<String>,
    /// Probability that a child is attached through a distributional node.
    pub dist_density: f64,
    /// Approximate target number of ordinary nodes (generation stops
    /// expanding once reached).
    pub target_size: usize,
}

impl Default for RandomPDocConfig {
    fn default() -> Self {
        RandomPDocConfig {
            max_depth: 5,
            max_children: 3,
            labels: ["a", "b", "c", "d", "e"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            dist_density: 0.4,
            target_size: 20,
        }
    }
}

/// Generates a random valid p-document with `mux` and `ind` nodes.
pub fn random_pdocument<R: Rng + ?Sized>(cfg: &RandomPDocConfig, rng: &mut R) -> PDocument {
    let root_label = Label::new(&cfg.labels[rng.gen_range(0..cfg.labels.len())]);
    let mut p = PDocument::new(root_label);
    let mut count = 1usize;
    // Frontier of (ordinary node, depth).
    let mut frontier = vec![(p.root(), 1usize)];
    while let Some((node, depth)) = frontier.pop() {
        if depth >= cfg.max_depth || count >= cfg.target_size {
            continue;
        }
        let n_children = rng.gen_range(0..=cfg.max_children);
        for _ in 0..n_children {
            if count >= cfg.target_size {
                break;
            }
            let label = Label::new(&cfg.labels[rng.gen_range(0..cfg.labels.len())]);
            let child = if rng.gen::<f64>() < cfg.dist_density {
                if rng.gen::<bool>() {
                    // mux with 1-2 alternatives
                    let mux = p.add_dist(node, PKind::Mux, 1.0);
                    let k = rng.gen_range(1..=2usize);
                    let mut ids = Vec::new();
                    let mut budget = 1.0f64;
                    for _ in 0..k {
                        let pr = rng.gen_range(0.05..budget.clamp(0.06, 0.9));
                        budget -= pr;
                        let lab = Label::new(&cfg.labels[rng.gen_range(0..cfg.labels.len())]);
                        ids.push(p.add_ordinary(mux, lab, pr));
                        count += 1;
                    }
                    for id in &ids[1..] {
                        frontier.push((*id, depth + 1));
                    }
                    ids[0]
                } else {
                    let ind = p.add_dist(node, PKind::Ind, 1.0);
                    let pr = rng.gen_range(0.1..0.95);
                    count += 1;
                    p.add_ordinary(ind, label, pr)
                }
            } else {
                count += 1;
                p.add_ordinary(node, label, 1.0)
            };
            frontier.push((child, depth + 1));
        }
    }
    debug_assert!(p.validate().is_ok());
    p
}

/// Scalable version of the paper's running example (Figures 1–2).
///
/// Builds `IT-personnel` with `n_persons` persons. Each person has a `name`
/// whose value is chosen by a `mux` between two candidate spellings
/// (information-extraction-style uncertainty) and a `bonus` subtree with
/// `n_projects` projects; each project label is `laptop`/`pda`/`tablet`
/// cyclically, attached through a `mux` for odd persons, and carries 1–2
/// bonus values, some behind `ind` nodes.
///
/// Returns the p-document and the list of `bonus` node ids (the nodes
/// typically selected by the paper's queries).
pub fn personnel(n_persons: usize, n_projects: usize, seed: u64) -> (PDocument, Vec<NodeId>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = PDocument::new(Label::new("IT-personnel"));
    let projects = ["laptop", "pda", "tablet"];
    let names = ["Rick", "John", "Mary", "Ann", "Bob"];
    let mut bonus_ids = Vec::with_capacity(n_persons);
    for i in 0..n_persons {
        let person = p.add_ordinary(p.root(), Label::new("person"), 1.0);
        let name = p.add_ordinary(person, Label::new("name"), 1.0);
        let mux = p.add_dist(name, PKind::Mux, 1.0);
        let a = names[i % names.len()];
        let b = names[(i + 1) % names.len()];
        let pa = rng.gen_range(0.5..0.95);
        p.add_ordinary(mux, Label::new(a), pa);
        p.add_ordinary(mux, Label::new(b), 1.0 - pa);
        let bonus = p.add_ordinary(person, Label::new("bonus"), 1.0);
        bonus_ids.push(bonus);
        for j in 0..n_projects {
            let proj_label = Label::new(projects[j % projects.len()]);
            let proj = if i % 2 == 1 {
                let m = p.add_dist(bonus, PKind::Mux, 1.0);
                p.add_ordinary(m, proj_label, rng.gen_range(0.3..0.95))
            } else {
                p.add_ordinary(bonus, proj_label, 1.0)
            };
            let n_vals = rng.gen_range(1..=2usize);
            for _ in 0..n_vals {
                let value = Label::new(&format!("{}", rng.gen_range(10..100)));
                if rng.gen::<f64>() < 0.3 {
                    let ind = p.add_dist(proj, PKind::Ind, 1.0);
                    p.add_ordinary(ind, value, rng.gen_range(0.2..0.95));
                } else {
                    p.add_ordinary(proj, value, 1.0);
                }
            }
        }
    }
    debug_assert!(p.validate().is_ok());
    (p, bonus_ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_pdocuments_validate() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = random_pdocument(&RandomPDocConfig::default(), &mut rng);
            assert!(p.validate().is_ok());
            assert!(p.ordinary_ids().count() >= 1);
        }
    }

    #[test]
    fn random_pdocument_respects_target_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RandomPDocConfig {
            target_size: 10,
            max_depth: 20,
            ..Default::default()
        };
        for _ in 0..20 {
            let p = random_pdocument(&cfg, &mut rng);
            // Allowed small overshoot: mux alternatives are added in pairs.
            assert!(p.ordinary_ids().count() <= 14);
        }
    }

    #[test]
    fn personnel_is_deterministic_in_seed() {
        let (p1, b1) = personnel(5, 2, 99);
        let (p2, b2) = personnel(5, 2, 99);
        assert_eq!(b1, b2);
        assert_eq!(p1.len(), p2.len());
        assert_eq!(p1.to_string(), p2.to_string());
    }

    #[test]
    fn personnel_scales() {
        let (p, bonuses) = personnel(50, 3, 7);
        assert!(p.validate().is_ok());
        assert_eq!(bonuses.len(), 50);
        assert!(p.len() > 50 * 6);
    }
}
