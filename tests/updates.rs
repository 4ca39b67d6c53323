//! Update differential suite: random edit sequences over the randomized
//! workload. After every edit the incrementally-maintained engine must
//! answer **bit-identically** to a fresh engine parsed from the
//! post-edit document's *text* (so the differential also crosses the
//! display/parse round trip), while the maintained cache re-materializes
//! nothing and localized edits stay on the incremental path
//! (`delta_fallbacks < edits_applied`).

use prxview::engine::{DocId, Engine, Fallback, QueryOptions};
use prxview::pxml::edit::Edit;
use prxview::pxml::generators::{personnel, random_pdocument, RandomPDocConfig};
use prxview::pxml::text::parse_pdocument;
use prxview::pxml::{Label, NodeId, PKind};
use prxview::rewrite::View;
use prxview::tpq::generators::{random_pattern, RandomPatternConfig};
use prxview::tpq::TreePattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn p(s: &str) -> TreePattern {
    prxview::tpq::parse::parse_pattern(s).unwrap()
}

/// The randomized workload of `tests/snapshot.rs`: the paper's personnel
/// scenario plus random documents whose query prefixes form the catalog.
fn build_workload(seed: u64) -> (Engine, Vec<(DocId, TreePattern)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let doc_cfg = RandomPDocConfig {
        max_depth: 4,
        max_children: 3,
        dist_density: 0.5,
        target_size: 12,
        ..RandomPDocConfig::default()
    };
    let pat_cfg = RandomPatternConfig {
        mb_len: 2,
        preds_per_node: 0.6,
        pred_depth: 1,
        ..RandomPatternConfig::default()
    };
    let mut engine = Engine::new();
    let hr = engine.add_document("hr", personnel(12, 3, 9).0).unwrap();
    let mut docs = vec![hr];
    for i in 0..2 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        docs.push(engine.add_document(format!("d{i}"), pdoc).unwrap());
    }
    engine
        .register_views([
            View::new("v1BON", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("v2BON", p("IT-personnel//person/bonus")),
        ])
        .unwrap();
    let mut workload: Vec<(DocId, TreePattern)> = Vec::new();
    for (i, q) in (0..4).map(|i| (i, random_pattern(&pat_cfg, &mut rng))) {
        for k in 1..=q.mb_len() {
            engine
                .register_view(View::new(format!("q{i}p{k}"), q.prefix(k)))
                .unwrap();
        }
        for &doc in &docs {
            workload.push((doc, q.clone()));
        }
    }
    for q in [
        "IT-personnel//person/bonus[laptop]",
        "IT-personnel//person/bonus[pda]",
        "IT-personnel//person/bonus",
        "IT-personnel//person[name/Rick]/bonus[laptop]",
    ] {
        workload.push((hr, p(q)));
    }
    (engine, workload)
}

/// Draws one structurally-valid random edit for `doc`, or `None` if this
/// draw found no valid site (the caller just draws again).
fn random_edit(engine: &Engine, doc: DocId, rng: &mut StdRng) -> Option<Edit> {
    let pdoc = engine.document(doc).unwrap();
    let mut ordinary: Vec<NodeId> = pdoc.ordinary_ids().collect();
    ordinary.sort();
    let pick = |rng: &mut StdRng, v: &[NodeId]| v[rng.gen_range(0..v.len())];
    match rng.gen_range(0..4u32) {
        // Relabel a random non-root ordinary node.
        0 => {
            let candidates: Vec<NodeId> = ordinary
                .iter()
                .copied()
                .filter(|&n| n != pdoc.root())
                .collect();
            let node = pick(rng, &candidates);
            let pool = ["edited", "laptop", "pda", "note", "zz"];
            Some(Edit::Relabel {
                node,
                label: Label::new(pool[rng.gen_range(0..pool.len())]),
            })
        }
        // Reweigh an edge under a mux/ind parent, respecting mux mass.
        1 => {
            let candidates: Vec<NodeId> = pdoc
                .node_ids()
                .filter(|&n| {
                    pdoc.parent(n)
                        .is_some_and(|par| matches!(pdoc.kind(par), PKind::Mux | PKind::Ind))
                })
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let mut candidates = candidates;
            candidates.sort();
            let node = pick(rng, &candidates);
            let parent = pdoc.parent(node).unwrap();
            let ceiling = match pdoc.kind(parent) {
                PKind::Mux => {
                    let others: f64 = pdoc
                        .children(parent)
                        .iter()
                        .filter(|&&c| c != node)
                        .map(|&c| pdoc.child_prob(parent, c))
                        .sum();
                    (1.0 - others).max(0.0)
                }
                _ => 1.0,
            };
            Some(Edit::SetProb {
                node,
                prob: rng.gen_range(0.0..1.0) * ceiling,
            })
        }
        // Graft a small probabilistic subtree under an ordinary node.
        2 => {
            let parent = pick(rng, &ordinary);
            let pool = [
                "note[hi]",
                "bonus[mux(0.5: laptop, 0.25: pda)]",
                "person[name[Zoe], bonus[laptop]]",
            ];
            Some(Edit::InsertSubtree {
                parent,
                prob: 1.0,
                subtree: parse_pdocument(pool[rng.gen_range(0..pool.len())]).unwrap(),
            })
        }
        // Delete a subtree whose removal keeps the document valid.
        _ => {
            let candidates: Vec<NodeId> = pdoc
                .node_ids()
                .filter(|&n| {
                    pdoc.parent(n).is_some_and(|par| {
                        pdoc.kind(par).is_ordinary() || pdoc.children(par).len() > 1
                    })
                })
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let mut candidates = candidates;
            candidates.sort();
            Some(Edit::DeleteSubtree {
                node: pick(rng, &candidates),
            })
        }
    }
}

/// The tentpole differential: after every random edit, the live engine
/// (incremental maintenance, warm cache) agrees bit-for-bit with a fresh
/// engine parsed from the post-edit document text.
#[test]
fn random_edit_sequences_match_fresh_engines_bit_identically() {
    let (mut engine, workload) = build_workload(20260727);
    let opts = QueryOptions::new().fallback(Fallback::Direct);
    for name in ["hr", "d0", "d1"] {
        let doc = engine.find_document(name).unwrap();
        engine.warm(doc).unwrap();
    }
    let warm_mats = engine.stats().materializations;
    let doc_names = ["hr", "d0", "d1"];

    let mut rng = StdRng::seed_from_u64(7);
    let mut applied = 0usize;
    let mut compared = 0usize;
    while applied < 10 {
        let doc = engine
            .find_document(doc_names[rng.gen_range(0..doc_names.len())])
            .unwrap();
        let Some(edit) = random_edit(&engine, doc, &mut rng) else {
            continue;
        };
        if engine
            .apply_edits(doc, std::slice::from_ref(&edit))
            .is_err()
        {
            continue; // a rare structurally-rejected draw; nothing mutated
        }
        applied += 1;

        // Fresh engine parsed from the post-edit document *text* — the
        // differential crosses the display/parse round trip too.
        let mut cold = Engine::new();
        for name in &doc_names {
            let live = engine.find_document(name).unwrap();
            let text = engine.document(live).unwrap().to_string();
            cold.add_document(*name, parse_pdocument(&text).unwrap())
                .unwrap();
        }
        cold.register_views(engine.catalog().views().to_vec())
            .unwrap();

        for (i, (doc, q)) in workload.iter().enumerate() {
            let live = engine.answer_with(*doc, q, &opts).expect("fallback on");
            let want = cold.answer_with(*doc, q, &opts).expect("fallback on");
            assert_eq!(
                live.nodes, want.nodes,
                "edit {applied} ({edit}), query {i} ({q}): bit-identical answers"
            );
            assert_eq!(
                live.description, want.description,
                "edit {applied}, query {i}: same route"
            );
            compared += 1;
        }
    }
    assert!(compared >= 100, "the differential must actually compare");

    let stats = engine.stats();
    assert_eq!(stats.edits_applied, applied as u64);
    // The random catalog contains root-predicate views that legitimately
    // cannot localize; the incremental path must still dominate the
    // maintenance steps. (The strict `delta_fallbacks < edits` claim for
    // purely localized edits is asserted by the test below.)
    assert!(
        stats.deltas_applied > stats.delta_fallbacks,
        "incremental maintenance must dominate ({} deltas vs {} fallbacks)",
        stats.deltas_applied,
        stats.delta_fallbacks
    );
    assert_eq!(
        stats.materializations, warm_mats,
        "maintenance never re-materialized a cached extension"
    );
}

/// Localized edits on the personnel scenario: every maintenance step
/// stays incremental (zero fallbacks) and reuses most results, and the
/// post-edit snapshot still round-trips the maintained state through the
/// on-disk store.
#[test]
fn localized_edits_never_fall_back_and_snapshots_carry_them() {
    let mut engine = Engine::new();
    let doc = engine.add_document("hr", personnel(10, 3, 9).0).unwrap();
    engine
        .register_views([
            View::new("v1BON", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("v2BON", p("IT-personnel//person/bonus")),
        ])
        .unwrap();
    engine.warm(doc).unwrap();

    // Edits inside single person subtrees: reweigh mux branches deep in
    // the tree.
    let mut rng = StdRng::seed_from_u64(11);
    let mut applied = 0;
    while applied < 6 {
        let Some(edit) = random_edit(&engine, doc, &mut rng) else {
            continue;
        };
        if !matches!(edit, Edit::SetProb { .. } | Edit::Relabel { .. }) {
            continue;
        }
        if engine
            .apply_edits(doc, std::slice::from_ref(&edit))
            .is_err()
        {
            continue;
        }
        applied += 1;
    }
    let stats = engine.stats();
    assert_eq!(stats.edits_applied, 6);
    assert!(
        stats.delta_fallbacks < stats.edits_applied,
        "localized edits keep fallbacks below the edit count"
    );
    assert_eq!(
        stats.delta_fallbacks, 0,
        "in-subtree edits localize for both personnel views"
    );
    assert_eq!(
        stats.deltas_applied, 12,
        "6 edits × 2 maintained extensions"
    );

    // Save → restore of the edited engine round-trips the post-edit
    // state: document, maintained extensions, and answers.
    let q = p("IT-personnel//person/bonus[laptop]");
    let want = engine.answer(doc, &q).unwrap();
    let path = std::env::temp_dir().join(format!("pxv-updates-{}.pxv", std::process::id()));
    engine.snapshot_to(&path).unwrap();
    let restored = Engine::restore_from(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let rd = restored.find_document("hr").unwrap();
    assert_eq!(
        restored.document(rd).unwrap().to_string(),
        engine.document(doc).unwrap().to_string(),
        "post-edit document round-trips the store"
    );
    let got = restored.answer(rd, &q).unwrap();
    assert_eq!(got.nodes, want.nodes, "bit-identical restored answers");
    assert_eq!(
        got.stats.materializations, 0,
        "maintained cache restored warm"
    );
}
