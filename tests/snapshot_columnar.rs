//! Columnar-snapshot differential test (format v3): an engine restored
//! *lazily* from a v3 file must answer a 48-query randomized workload
//! bit-identically to the live engine that produced the snapshot AND to
//! an engine restored eagerly from the v2 row encoding of the same
//! snapshot — with zero materializations (every extension is served from
//! the snapshot) and exactly one section fault per distinct
//! `(document, view)` pair the workload's plans touch — and the v3 file
//! must be at most 70% of the v2 file's size. A companion test
//! pins the fault-isolation contract: a corrupt section surfaces as a
//! typed engine error at query time while every other section serves.

use prxview::engine::{DocId, Engine, EngineError, Fallback, QueryOptions};
use prxview::pxml::generators::{personnel, random_pdocument, RandomPDocConfig};
use prxview::rewrite::View;
use prxview::store::{
    decode_snapshot, decode_snapshot_lazy, encode_snapshot, encode_snapshot_v2, LazyBody,
};
use prxview::tpq::generators::{random_pattern, RandomPatternConfig};
use prxview::tpq::TreePattern;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

const WORKLOAD_QUERIES: usize = 48;

/// A warmed engine mixing the paper's personnel scenario with random
/// documents, prefix-view catalogs (guaranteed rewritings) and one view
/// no query can ever reference — so the fault count has something to
/// *not* touch.
fn build_workload() -> (Engine, Vec<(DocId, TreePattern)>) {
    let mut rng = StdRng::seed_from_u64(20260808);
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
    let hr = engine.add_document("hr", personnel(30, 3, 9).0).unwrap();
    let mut docs = vec![hr];
    for i in 0..2 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        docs.push(engine.add_document(format!("d{i}"), pdoc).unwrap());
    }
    engine
        .register_views([
            View::new("v1BON", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("v2BON", p("IT-personnel//person/bonus")),
            // Unreferencable: no workload query matches this label, so
            // its sections must never fault in.
            View::new("zzzNEVER", p("zzz-root/never")),
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
    while workload.len() < WORKLOAD_QUERIES {
        workload.push((
            docs[workload.len() % docs.len()],
            random_pattern(&pat_cfg, &mut rng),
        ));
    }
    workload.truncate(WORKLOAD_QUERIES);
    for &doc in &docs {
        engine.warm(doc).unwrap();
    }
    (engine, workload)
}

#[test]
fn lazy_v3_restore_matches_live_and_v2_restores_bit_identically() {
    let (engine, workload) = build_workload();
    assert_eq!(workload.len(), WORKLOAD_QUERIES);
    let opts = QueryOptions::new().fallback(Fallback::Direct);

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

    let snap = engine.snapshot();
    let v2_bytes = encode_snapshot_v2(&snap);
    let v3_bytes = encode_snapshot(&snap);
    // The columnar encoding of the same snapshot is at least 30% smaller
    // than the row encoding (this workload measures about 66%).
    assert!(
        v3_bytes.len() as f64 <= v2_bytes.len() as f64 * 0.7,
        "v3 must be at least 30% smaller than v2: v2 {} B, v3 {} B",
        v2_bytes.len(),
        v3_bytes.len()
    );
    let v2_engine = Engine::from_snapshot(decode_snapshot(&v2_bytes).expect("v2 decodes"))
        .expect("v2 restores");
    let lazy = decode_snapshot_lazy(v3_bytes).expect("v3 decodes lazily");
    assert!(
        lazy.sections
            .iter()
            .all(|s| matches!(s.body, LazyBody::Pending(_))),
        "every v3 extension section restores pending"
    );
    let total_sections = lazy.sections.len();
    let v3_engine = Engine::from_snapshot_lazy(lazy).expect("v3 restores");

    // The distinct (doc, view) pairs the workload's plans reference —
    // computed on the lazy engine itself so the count and the faults
    // come from the same plans.
    let mut touched: HashSet<(usize, usize)> = HashSet::new();
    for (i, ((doc, q), want)) in workload.iter().zip(&expected).enumerate() {
        let got_v2 = v2_engine.answer_with(*doc, q, &opts).expect("fallback on");
        let got_v3 = v3_engine.answer_with(*doc, q, &opts).expect("fallback on");
        assert_eq!(
            got_v3.nodes, want.nodes,
            "query {i} ({q}): lazy v3 restore must answer bit-identically to live"
        );
        assert_eq!(
            got_v2.nodes, want.nodes,
            "query {i} ({q}): eager v2 restore must answer bit-identically to live"
        );
        assert_eq!(
            got_v3.description, want.description,
            "query {i}: same route"
        );
        assert_eq!(
            got_v2.description, want.description,
            "query {i}: same route"
        );
        if let Some(plan) = &got_v3.plan {
            for view in plan.referenced_views() {
                touched.insert((doc.index(), view));
            }
        }
    }

    let v3_stats = v3_engine.stats();
    let v2_stats = v2_engine.stats();
    assert_eq!(
        v3_stats.materializations, 0,
        "the lazy restore must serve the whole workload from the snapshot"
    );
    assert_eq!(v2_stats.materializations, 0, "v2's cache is warm too");
    assert!(!touched.is_empty(), "the workload references views");
    assert!(
        touched.len() < total_sections,
        "the unreferencable view keeps the fault count strict \
         ({} touched of {total_sections} sections)",
        touched.len()
    );
    assert_eq!(
        v3_stats.sections_faulted,
        touched.len() as u64,
        "sections faulted must equal the distinct (doc, view) pairs touched"
    );
    assert!(
        v3_stats.lazy_decode_ns > 0,
        "fault decode time is accounted"
    );
    assert_eq!(
        v2_stats.sections_faulted, 0,
        "an eager restore never faults"
    );
}

#[test]
fn corrupt_section_faults_typed_at_query_time_while_others_serve() {
    let p = |s: &str| prxview::tpq::parse::parse_pattern(s).unwrap();
    let mut engine = Engine::new();
    let doc = engine.add_document("hr", personnel(20, 3, 9).0).unwrap();
    engine
        .register_views([
            View::new("v1BON", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("v2BON", p("IT-personnel//person/bonus")),
        ])
        .unwrap();
    engine.warm(doc).unwrap();
    let q_rick = p("IT-personnel//person[name/Rick]/bonus[laptop]");
    let q_all = p("IT-personnel//person/bonus[laptop]");
    let opts = QueryOptions::new().fallback(Fallback::Forbid);
    let want_rick = engine.answer_with(doc, &q_rick, &opts).unwrap();
    let want_all = engine.answer_with(doc, &q_all, &opts).unwrap();
    let plan_rick = engine.plan(&q_rick).unwrap();
    let rick_views: Vec<usize> = plan_rick.referenced_views().into_iter().collect();
    assert_eq!(rick_views, vec![0], "qRick must plan over v1BON alone");

    let mut bytes = encode_snapshot(&engine.snapshot());
    // Locate v1BON's still-encoded body via a clean lazy boot and smash
    // a byte in the middle of it.
    let clean = decode_snapshot_lazy(bytes.clone()).expect("clean boot");
    let body = clean
        .sections
        .iter()
        .find_map(|s| match (&s.body, s.view) {
            (LazyBody::Pending(r), 0) => Some(r.offset()..r.offset() + r.len()),
            _ => None,
        })
        .expect("v1BON section present");
    bytes[body.start + body.len() / 2] ^= 0xFF;

    let restored = Engine::from_snapshot_lazy(decode_snapshot_lazy(bytes).expect("boot survives"))
        .expect("restore survives — the flip sits in an undecoded body");

    // The undamaged section keeps serving, bit-identically.
    let got_all = restored
        .answer_with(doc, &q_all, &opts)
        .expect("v2BON serves");
    assert_eq!(got_all.nodes, want_all.nodes);

    // The damaged section is a typed engine error at query time — on
    // every probe, not just the first.
    for attempt in 0..2 {
        match restored.answer_with(doc, &q_rick, &opts) {
            Err(EngineError::Section { doc: d, view, .. }) => {
                assert_eq!(
                    (d, view),
                    (doc.index(), 0),
                    "error names the section (try {attempt})"
                );
            }
            other => panic!("corrupt section must fault typed, got {other:?}"),
        }
    }

    // The failure is contained: the other section still answers after
    // the faults, and nothing was silently materialized.
    let again = restored
        .answer_with(doc, &q_all, &opts)
        .expect("still serving");
    assert_eq!(again.nodes, want_all.nodes);
    assert_eq!(restored.stats().materializations, 0);
    drop(want_rick);
}
