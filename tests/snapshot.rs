//! Snapshot differential test: a warmed engine, snapshotted to disk and
//! restored, must answer the `tests/differential.rs`-style randomized
//! workload **bit-identically** to the engine that produced the snapshot
//! — same nodes, same `f64` bits, same plan routes — while performing
//! **zero** materializations (the restored cache is the warm cache).

use prxview::engine::{DocId, Engine, Fallback, QueryOptions};
use prxview::pxml::generators::{random_pdocument, RandomPDocConfig};
use prxview::rewrite::View;
use prxview::tpq::generators::{random_pattern, RandomPatternConfig};
use prxview::tpq::TreePattern;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An engine mixing the paper's personnel scenario (guaranteed nonempty,
/// planned answers with nontrivial probabilities) with random documents
/// and queries whose prefixes form the catalog (guaranteed rewritings,
/// like `tests/differential.rs`), plus a diverse query workload.
fn build_workload() -> (Engine, Vec<(DocId, TreePattern)>) {
    let mut rng = StdRng::seed_from_u64(20260726);
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
    let p = |s: &str| prxview::tpq::parse::parse_pattern(s).unwrap();
    let mut engine = Engine::new();
    let hr = engine
        .add_document("hr", prxview::pxml::generators::personnel(30, 3, 9).0)
        .unwrap();
    let mut docs = vec![hr];
    for i in 0..3 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        docs.push(engine.add_document(format!("d{i}"), pdoc).unwrap());
    }
    engine
        .register_views([
            View::new("v1BON", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("v2BON", p("IT-personnel//person/bonus")),
        ])
        .unwrap();
    // Random queries whose prefixes become views: TPrewrite accepts the
    // identity/prefix rewritings, so these are answered from extensions.
    let mut workload: Vec<(DocId, TreePattern)> = Vec::new();
    for (i, q) in (0..6).map(|i| (i, random_pattern(&pat_cfg, &mut rng))) {
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
    for i in 0..20 {
        workload.push((docs[i % docs.len()], random_pattern(&pat_cfg, &mut rng)));
    }
    (engine, workload)
}

#[test]
fn restored_engine_answers_workload_bit_identically_with_zero_materializations() {
    let (engine, workload) = build_workload();
    let opts = QueryOptions::new().fallback(Fallback::Direct);

    // Warm everything: every (document, view) extension is materialized,
    // so the snapshot carries the complete warm cache.
    let mut total_ext = 0;
    for name in ["hr", "d0", "d1", "d2"] {
        let doc = engine.find_document(name).unwrap();
        total_ext += engine.warm(doc).unwrap();
    }
    assert_eq!(
        total_ext,
        engine.document_count() * engine.catalog().len(),
        "every (document, view) extension materialized"
    );

    let expected: Vec<_> = workload
        .iter()
        .map(|(d, q)| engine.answer_with(*d, q, &opts).expect("fallback on"))
        .collect();
    assert!(
        expected.iter().any(|a| !a.nodes.is_empty()),
        "workload must produce nonempty answers"
    );
    assert!(
        expected.iter().any(|a| a.from_views()),
        "workload must exercise view plans"
    );

    // Save → restore through the real on-disk format.
    let path =
        std::env::temp_dir().join(format!("pxv-snap-differential-{}.pxv", std::process::id()));
    let bytes = engine.snapshot_to(&path).unwrap();
    assert!(bytes > 0);
    let restored = Engine::restore_from(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    assert_eq!(restored.catalog_epoch(), engine.catalog_epoch());
    assert_eq!(restored.document_count(), engine.document_count());
    for (i, ((doc, q), want)) in workload.iter().zip(&expected).enumerate() {
        // DocId values survive because documents restore in id order.
        let got = restored.answer_with(*doc, q, &opts).expect("fallback on");
        assert_eq!(
            got.nodes, want.nodes,
            "query {i} ({q}): restored answers must be bit-identical"
        );
        assert_eq!(got.description, want.description, "query {i}: same route");
        assert_eq!(
            got.stats.materializations, 0,
            "query {i}: restored cache is warm"
        );
    }
    assert_eq!(
        restored.stats().materializations,
        0,
        "the whole restored run re-materialized nothing"
    );
    assert_eq!(restored.stats().queries, workload.len() as u64);
}

/// The restored engine is not frozen: it keeps working as a live engine
/// (new views, invalidation, re-materialization) after the restore.
#[test]
fn restored_engine_stays_live() {
    let (engine, workload) = build_workload();
    for name in ["hr", "d0", "d1", "d2"] {
        let doc = engine.find_document(name).unwrap();
        engine.warm(doc).unwrap();
    }
    let mut restored = Engine::from_snapshot(engine.snapshot()).unwrap();
    let doc = restored.find_document("d0").unwrap();
    let evicted = restored.invalidate(doc).unwrap();
    assert_eq!(
        evicted,
        restored.catalog().len(),
        "all of d0's restored extensions evicted"
    );
    assert!(
        restored.catalog_epoch() > engine.catalog_epoch(),
        "post-restore mutations advance the epoch"
    );
    let opts = QueryOptions::new().fallback(Fallback::Direct);
    let (_, q) = &workload[0];
    let a = restored.answer_with(doc, q, &opts).unwrap();
    if a.from_views() {
        assert!(
            a.stats.materializations > 0,
            "evicted extensions re-materialize on demand"
        );
    }
}
