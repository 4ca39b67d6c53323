//! Budgeted-cache correctness: eviction is *purely* a caching decision.
//! A byte-starved engine answers bit-identically to an unbounded one
//! (differential), an evicted extension rematerializes bit-identically
//! on the next query, the byte gauge never exceeds the budget at any
//! quiesced checkpoint, the single-flight guarantee holds while
//! evictions race queries, and the bounded plan cache / query log never
//! grow past their caps.

use prxview::engine::{AdviseOptions, Engine, EpochEngine, QueryOptions};
use prxview::pxml::generators::personnel;
use prxview::rewrite::View;
use prxview::tpq::parse::parse_pattern;
use prxview::tpq::TreePattern;

fn p(s: &str) -> TreePattern {
    parse_pattern(s).unwrap()
}

fn views() -> Vec<View> {
    vec![
        View::new("bonuses", p("IT-personnel//person/bonus")),
        View::new("rick", p("IT-personnel//person[name/Rick]/bonus")),
    ]
}

fn query_mix() -> Vec<TreePattern> {
    vec![
        p("IT-personnel//person/bonus[laptop]"),
        p("IT-personnel//person/bonus[pda]"),
        p("IT-personnel//person[name/Rick]/bonus[laptop]"),
        p("IT-personnel//person/bonus"),
    ]
}

/// Engine with several documents so budget pressure has victims to
/// choose between.
fn multi_doc_engine(docs: usize) -> (Engine, Vec<prxview::engine::DocId>) {
    let mut engine = Engine::new();
    let ids = (0..docs)
        .map(|i| {
            let (pdoc, _) = personnel(20 + 4 * i, 3, 7 + i as u64);
            engine.add_document(format!("p{i}"), pdoc).unwrap()
        })
        .collect();
    engine.register_views(views()).unwrap();
    (engine, ids)
}

/// Differential: a budgeted engine must answer every query in the mix
/// bit-identically to an unbounded twin, no matter how hard the budget
/// squeezes — eviction may cost rematerializations, never correctness.
#[test]
fn budgeted_engine_is_bit_identical_to_unbounded() {
    let (unbounded, docs) = multi_doc_engine(4);
    let (mut budgeted, _) = multi_doc_engine(4);
    for &d in &docs {
        unbounded.warm(d).unwrap();
    }
    let full = unbounded.cache_bytes();
    assert!(full > 0, "warm cache is byte-accounted");

    // Roughly one document's worth of extensions fits at a time.
    let budget = full / 4;
    budgeted.set_cache_budget(budget);
    for round in 0..3 {
        for &d in &docs {
            for q in &query_mix() {
                let want = unbounded.answer(d, q).unwrap();
                let got = budgeted.answer(d, q).unwrap();
                assert_eq!(want.nodes.len(), got.nodes.len(), "round {round}: {q}");
                for ((n1, p1), (n2, p2)) in want.nodes.iter().zip(&got.nodes) {
                    assert_eq!(n1, n2, "round {round}: {q}");
                    assert_eq!(p1.to_bits(), p2.to_bits(), "round {round}: {q} node {n1}");
                }
            }
            // Quiesced checkpoint: the gauge obeys the budget.
            assert!(
                budgeted.cache_bytes() <= budget,
                "round {round}: {} > {budget}",
                budgeted.cache_bytes()
            );
        }
    }
    let stats = budgeted.stats();
    // Pressure resolves as an eviction (older victim) or an admission
    // reject (the new entry itself scored lowest — rebuild times are
    // measured, so which one is timing-dependent); either proves the
    // budget squeezed.
    assert!(
        stats.evictions + stats.admission_rejects > 0,
        "the budget actually squeezed"
    );
    assert!(
        stats.materializations > unbounded.stats().materializations,
        "eviction cost rematerializations, not answers"
    );
}

/// An evicted extension rematerializes bit-identically when its query
/// returns, and the eviction log records what was dropped and why.
#[test]
fn evicted_extension_rematerializes_bit_identically() {
    let (mut engine, docs) = multi_doc_engine(2);
    let q = p("IT-personnel//person/bonus[laptop]");
    let warm = engine.answer(docs[0], &q).unwrap();
    assert_eq!(engine.stats().materializations, 1);

    // Evict everything; the gauge drops to zero and the log says why.
    engine.set_cache_budget(1);
    assert!(engine.cache_bytes() <= 1);
    let log = engine.eviction_log();
    assert!(!log.is_empty());
    for record in &log {
        assert!(record.bytes > 0, "evicted entries were charged");
        assert!(record.score >= 0.0);
    }
    assert_eq!(engine.stats().evictions, log.len() as u64);

    // Unbounded again: the re-query rebuilds and answers identically.
    engine.set_cache_budget(u64::MAX);
    let cold = engine.answer(docs[0], &q).unwrap();
    assert_eq!(cold.stats.materializations, 1, "rebuilt after eviction");
    assert_eq!(cold.nodes.len(), warm.nodes.len());
    for ((n1, p1), (n2, p2)) in warm.nodes.iter().zip(&cold.nodes) {
        assert_eq!(n1, n2);
        assert_eq!(p1.to_bits(), p2.to_bits(), "node {n1}");
    }
}

/// A budget smaller than any single extension: every materialization is
/// admitted for the duration of its query, then immediately retired —
/// counted as an admission reject, with answers still correct.
#[test]
fn tiny_budget_rejects_admissions_but_answers() {
    let (mut engine, docs) = multi_doc_engine(1);
    engine.set_cache_budget(1);
    let q = p("IT-personnel//person/bonus[laptop]");
    let first = engine.answer(docs[0], &q).unwrap();
    let second = engine.answer(docs[0], &q).unwrap();
    assert_eq!(first.nodes, second.nodes);
    assert_eq!(second.stats.materializations, 1, "nothing stays resident");
    let stats = engine.stats();
    assert!(stats.cache_bytes <= 1);
    assert!(stats.admission_rejects > 0, "newest entry was the victim");
    assert!(engine.eviction_log().iter().any(|r| r.admission_reject));
}

/// Single-flight must hold while evictions race queries: reader threads
/// hammer the same queries on the published epoch while another thread
/// publishes budget flips between tight and unbounded. Readers sharing
/// an epoch still evict each other through admission inside its one
/// catalog. Every answer stays bit-identical to the reference and the
/// engine never deadlocks or double-charges the gauge (checked at the
/// quiesced end state).
#[test]
fn single_flight_holds_under_eviction_races() {
    let (engine, docs) = multi_doc_engine(2);
    let reference: Vec<_> = docs
        .iter()
        .flat_map(|&d| query_mix().into_iter().map(move |q| (d, q)))
        .map(|(d, q)| {
            let nodes = engine.answer(d, &q).unwrap().nodes;
            (d, q, nodes)
        })
        .collect();
    let full = engine.cache_bytes();
    assert!(full > 0);
    let ee = EpochEngine::new(engine);
    let set_budget = |bytes: u64| {
        ee.update(|e| {
            e.set_cache_budget(bytes);
            Ok::<_, ()>(())
        })
        .unwrap()
    };

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let ee = &ee;
            let reference = &reference;
            scope.spawn(move || {
                for r in 0..30 {
                    let (d, q, want) = &reference[(t + r) % reference.len()];
                    let got = ee.read().answer(*d, q).unwrap();
                    assert_eq!(&got.nodes, want, "thread {t} round {r}: {q}");
                }
            });
        }
        // The antagonist: squeeze and release the budget concurrently.
        scope.spawn(|| {
            for r in 0..40 {
                set_budget(if r % 2 == 0 { full / 8 } else { u64::MAX });
                std::thread::yield_now();
            }
            set_budget(u64::MAX);
        });
    });

    // Quiesced: the gauge equals the sum of what is actually resident —
    // re-warming from here must only add bytes for what is missing.
    let engine = ee.read();
    let resident = engine.cache_bytes();
    for &d in &docs {
        engine.warm(d).unwrap();
    }
    assert!(engine.cache_bytes() >= resident);
    assert!(engine.stats().evictions > 0, "the antagonist evicted");
    // And the answers are still right.
    for (d, q, want) in &reference {
        assert_eq!(&engine.answer(*d, q).unwrap().nodes, want, "{q}");
    }
}

/// The eviction log itself is bounded: a pathological workload that
/// churns the cache for thousands of rounds keeps only the most recent
/// [`EVICTION_LOG_CAPACITY`] records (oldest dropped), while the
/// lifetime counters keep the true totals — the log can never become
/// the memory leak it exists to explain.
#[test]
fn eviction_log_is_bounded_under_sustained_churn() {
    use prxview::engine::EVICTION_LOG_CAPACITY;
    let (mut engine, docs) = multi_doc_engine(1);
    engine.set_cache_budget(1);
    let q = p("IT-personnel//person/bonus[laptop]");
    let rounds = EVICTION_LOG_CAPACITY + 50;
    for _ in 0..rounds {
        engine.answer(docs[0], &q).unwrap();
    }
    let log = engine.eviction_log();
    assert_eq!(log.len(), EVICTION_LOG_CAPACITY, "ring keeps the cap");
    assert!(
        log.iter().all(|r| r.admission_reject),
        "budget=1 retires every materialization as an admission reject"
    );
    let stats = engine.stats();
    assert!(
        stats.evictions + stats.admission_rejects >= rounds as u64,
        "lifetime counters outlive the bounded log: {} + {} < {rounds}",
        stats.evictions,
        stats.admission_rejects
    );
}

/// The plan cache is bounded: filling it past capacity evicts the
/// least-recently-used plans, keeps hot plans warm, and never grows the
/// map past the configured cap.
#[test]
fn plan_cache_is_bounded_with_lru_eviction() {
    let (pdoc, _) = personnel(10, 2, 3);
    let mut engine = Engine::new();
    let doc = engine.add_document("p", pdoc).unwrap();
    engine.register_views(views()).unwrap();
    engine.set_plan_cache_capacity(8);
    assert_eq!(engine.plan_cache_capacity(), 8);

    // A hot plan, touched between every batch of fillers.
    let hot = p("IT-personnel//person/bonus[laptop]");
    engine.answer(doc, &hot).unwrap();
    for i in 0..40 {
        let filler = p(&format!("IT-personnel//person/bonus[gadget-{i}]"));
        engine.answer(doc, &filler).unwrap();
        engine.answer(doc, &hot).unwrap();
        assert!(
            engine.plan_cache_len() <= 8,
            "plan cache grew to {} entries",
            engine.plan_cache_len()
        );
    }
    // The hot plan was touched every round: still cached.
    let before = engine.stats().plan_cache_hits;
    engine.answer(doc, &hot).unwrap();
    assert_eq!(engine.stats().plan_cache_hits, before + 1, "hot plan kept");

    // A filler evicted long ago re-plans (cache miss), proving eviction
    // actually happened rather than the cap being ignored.
    let misses = engine.stats().plan_cache_misses;
    engine
        .answer(doc, &p("IT-personnel//person/bonus[gadget-0]"))
        .unwrap();
    assert!(engine.stats().plan_cache_misses > misses, "oldest evicted");

    // Shrinking the capacity evicts down immediately.
    engine.set_plan_cache_capacity(2);
    assert!(engine.plan_cache_len() <= 2);
}

/// The query log is a bounded ring: distinct keys never exceed the cap,
/// and the heaviest queries survive the churn.
#[test]
fn query_log_is_bounded_and_keeps_heavy_hitters() {
    let (pdoc, _) = personnel(6, 2, 5);
    let mut engine = Engine::new();
    let doc = engine.add_document("p", pdoc).unwrap();
    let heavy = p("IT-personnel//person/bonus");
    engine.record_query(doc, &heavy, 10_000).unwrap();
    for i in 0..2_000 {
        let q = p(&format!("IT-personnel//person/bonus[one-off-{i}]"));
        engine.record_query(doc, &q, 1).unwrap();
        // Keep the heavy hitter recent as real traffic would.
        engine.record_query(doc, &heavy, 1).unwrap();
    }
    let log = engine.query_log();
    assert!(log.len() <= 1024, "log has {} distinct entries", log.len());
    assert_eq!(
        log[0].pattern.canonical_key(),
        heavy.canonical_key(),
        "most-frequent first"
    );
    assert!(log[0].count >= 10_000);
    engine.clear_query_log();
    assert!(engine.query_log().is_empty());
    // Unknown documents are typed errors, not silent drops (a DocId
    // from a bigger engine does not exist in this one).
    let (_, foreign) = multi_doc_engine(2);
    assert!(engine.record_query(foreign[1], &heavy, 1).is_err());
}

/// Budget and per-entry scores survive a snapshot round trip: the
/// restored engine reports the same budget, the same byte gauge, and —
/// because heap accounting is deterministic — restore never evicts what
/// the saved engine kept.
#[test]
fn snapshot_round_trips_budget_and_scores() {
    let (mut engine, docs) = multi_doc_engine(2);
    for &d in &docs {
        engine.warm(d).unwrap();
    }
    // Accrue hits so the scores are non-trivial.
    for q in &query_mix() {
        engine.answer(docs[0], q).unwrap();
    }
    let budget = engine.cache_bytes() + 1024;
    engine.set_cache_budget(budget);
    let bytes_before = engine.cache_bytes();

    let restored = Engine::from_snapshot(engine.snapshot()).unwrap();
    assert_eq!(restored.cache_budget(), budget);
    assert_eq!(
        restored.cache_bytes(),
        bytes_before,
        "deterministic accounting: restore re-reports identical bytes"
    );
    assert_eq!(restored.stats().evictions, 0, "restore never evicts");
    // Warm restore answers bit-identically with zero materializations.
    for &d in &docs {
        for q in &query_mix() {
            let want = engine.answer(d, q).unwrap();
            let got = restored.answer(d, q).unwrap();
            assert_eq!(got.stats.materializations, 0, "warm restore: {q}");
            assert_eq!(want.nodes.len(), got.nodes.len());
            for ((n1, p1), (n2, p2)) in want.nodes.iter().zip(&got.nodes) {
                assert_eq!(n1, n2);
                assert_eq!(p1.to_bits(), p2.to_bits(), "{q} node {n1}");
            }
        }
    }
}

/// The advisor reads the engine's own query log: answering queries the
/// catalog cannot serve makes the advisor propose a covering view, and
/// `advise_and_register` makes the next identical query plannable.
#[test]
fn advisor_proposes_views_for_unserved_workload() {
    let (pdoc, _) = personnel(15, 3, 21);
    let mut engine = Engine::new();
    let doc = engine.add_document("p", pdoc).unwrap();
    engine.register_views(views()).unwrap();
    let unserved = p("IT-personnel//person/name");
    let direct = engine
        .answer_with(
            doc,
            &unserved,
            &QueryOptions::default().fallback(prxview::engine::Fallback::Direct),
        )
        .unwrap();
    assert!(!direct.nodes.is_empty());

    let report = engine.advise(&AdviseOptions::default());
    assert!(report.logged >= 1);
    assert!(report.coverage() >= 1, "{}", report.describe());
    let (report, registered) = engine
        .advise_and_register(&AdviseOptions::default())
        .unwrap();
    assert!(!registered.is_empty(), "{}", report.describe());
    // Now plannable without fallback, and bit-identical to direct.
    let via_view = engine.answer(doc, &unserved).unwrap();
    assert_eq!(via_view.nodes.len(), direct.nodes.len());
    for ((n1, p1), (n2, p2)) in direct.nodes.iter().zip(&via_view.nodes) {
        assert_eq!(n1, n2);
        assert_eq!(p1.to_bits(), p2.to_bits(), "node {n1}");
    }
}
