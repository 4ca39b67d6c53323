//! Engine-level integration tests: the catalog memoization contract
//! (satellite: warm-catalog queries perform zero materializations),
//! selective materialization for TP∩ plans, the plan cache (warm plans
//! are never re-planned; epoch bumps invalidate), and a randomized
//! property test that `Engine::answer` agrees with direct evaluation on
//! random p-documents and view sets (reusing `pxml::generators` and
//! `tpq::generators`).

use prxview::engine::{Engine, EngineError, Fallback, PlanPreference, QueryOptions};
use prxview::pxml::generators::{personnel, random_pdocument, RandomPDocConfig};
use prxview::rewrite::View;
use prxview::tpq::generators::{random_pattern, RandomPatternConfig};
use prxview::tpq::parse::parse_pattern;
use prxview::tpq::TreePattern;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn p(s: &str) -> TreePattern {
    parse_pattern(s).unwrap()
}

/// Satellite requirement: the second query on a warm catalog performs
/// zero new materializations, observed through the `Answer` stats.
#[test]
fn warm_catalog_performs_zero_materializations() {
    let (pdoc, _) = personnel(25, 3, 11);
    let mut engine = Engine::new();
    let doc = engine.add_document("personnel", pdoc).unwrap();
    engine
        .register_views([
            View::new("bonuses", p("IT-personnel//person/bonus")),
            View::new("rick", p("IT-personnel//person[name/Rick]/bonus")),
        ])
        .unwrap();
    let q = p("IT-personnel//person/bonus[laptop]");
    let cold = engine.answer(doc, &q).expect("plan");
    assert_eq!(cold.stats.materializations, 1, "cold query materializes");
    assert_eq!(cold.stats.cache_hits, 0);
    let warm = engine.answer(doc, &q).expect("plan");
    assert_eq!(warm.stats.materializations, 0, "warm query reuses cache");
    assert_eq!(warm.stats.cache_hits, 1);
    assert_eq!(warm.stats.extensions_touched, 1);
    assert_eq!(warm.nodes, cold.nodes);
    // A different query over the same view is also served from cache.
    let q2 = p("IT-personnel//person/bonus[pda]");
    let other = engine.answer(doc, &q2).expect("plan");
    assert_eq!(other.stats.materializations, 0);
    assert_eq!(other.stats.cache_hits, 1);
    // Engine-lifetime counters agree.
    assert_eq!(engine.stats().materializations, 1);
    assert_eq!(engine.stats().cache_hits, 2);
}

/// Acceptance criterion: a TP∩ plan materializes only the views its parts
/// reference — decoy views in the catalog stay unmaterialized.
#[test]
fn tpi_plan_materializes_only_referenced_views() {
    let (pdoc, _) = personnel(10, 2, 19);
    let mut engine = Engine::new();
    let doc = engine.add_document("personnel", pdoc).unwrap();
    engine
        .register_views([
            View::new("mary", p("IT-personnel//person[name/Mary]/bonus")),
            View::new("all", p("IT-personnel//person/bonus")),
            // Decoys: unrelated or useless for the query below.
            View::new("decoy1", p("IT-personnel//person/name")),
            View::new("decoy2", p("nosuchlabel//nothing")),
            View::new("decoy3", p("IT-personnel//person")),
        ])
        .unwrap();
    let q = p("IT-personnel//person[name/Mary]/bonus[pda]");
    let tpi_only = QueryOptions::new().plan_preference(PlanPreference::TpiOnly);
    let answer = engine.answer_with(doc, &q, &tpi_only).expect("TP∩ plan");
    let plan = answer.plan.as_ref().expect("from views");
    let referenced = plan.referenced_views();
    assert!(
        referenced.len() < engine.catalog().len(),
        "plan must not reference the whole catalog: {referenced:?}"
    );
    assert_eq!(
        answer.stats.extensions_touched,
        referenced.len(),
        "execution touches exactly the referenced extensions"
    );
    assert_eq!(answer.stats.materializations, referenced.len());
    // The catalog holds extensions only for the referenced views.
    assert_eq!(
        engine.catalog().cached_extensions(doc),
        referenced.len(),
        "decoy views must stay unmaterialized"
    );
    // And the answers are right.
    let direct = engine.answer_direct(doc, &q).unwrap();
    assert_eq!(answer.nodes.len(), direct.nodes.len());
    for ((n1, p1), (n2, p2)) in answer.nodes.iter().zip(&direct.nodes) {
        assert_eq!(n1, n2);
        assert!((p1 - p2).abs() < 1e-9);
    }
}

/// `warm` pre-materializes everything; afterwards every plan runs with
/// zero materializations, TP∩ included.
#[test]
fn warm_precomputes_all_views() {
    let (pdoc, _) = personnel(8, 2, 29);
    let mut engine = Engine::new();
    let doc = engine.add_document("personnel", pdoc).unwrap();
    engine
        .register_views([
            View::new("mary", p("IT-personnel//person[name/Mary]/bonus")),
            View::new("all", p("IT-personnel//person/bonus")),
        ])
        .unwrap();
    assert_eq!(engine.warm(doc).unwrap(), 2);
    let q = p("IT-personnel//person[name/Mary]/bonus[laptop]");
    let tpi_only = QueryOptions::new().plan_preference(PlanPreference::TpiOnly);
    let answer = engine.answer_with(doc, &q, &tpi_only).expect("TP∩ plan");
    assert_eq!(answer.stats.materializations, 0);
    assert_eq!(answer.stats.cache_hits, answer.stats.extensions_touched);
}

/// Satellite requirement: randomized agreement between `Engine::answer`
/// and direct evaluation. Queries are random tree patterns; the catalog
/// holds prefix views of the query (frequently rewritable) plus an
/// unrelated random decoy view.
#[test]
fn random_engine_answers_agree_with_direct() {
    let mut rng = StdRng::seed_from_u64(2026);
    let doc_cfg = RandomPDocConfig {
        max_depth: 5,
        max_children: 3,
        dist_density: 0.5,
        target_size: 25,
        ..RandomPDocConfig::default()
    };
    let pat_cfg = RandomPatternConfig {
        mb_len: 3,
        preds_per_node: 0.6,
        pred_depth: 2,
        ..RandomPatternConfig::default()
    };
    let mut planned = 0usize;
    let mut fell_back = 0usize;
    for trial in 0..120 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        let q = random_pattern(&pat_cfg, &mut rng);
        let decoy = random_pattern(&pat_cfg, &mut rng);
        let mut engine = Engine::new();
        let doc = engine.add_document("rand", pdoc).unwrap();
        // Prefix views of q admit TP plans often; add the full pattern
        // sometimes to exercise identity plans too.
        let mut views = Vec::new();
        for k in 1..=q.mb_len() {
            views.push(View::new(format!("prefix{k}"), q.prefix(k)));
        }
        views.push(View::new("decoy", decoy));
        engine.register_views(views).unwrap();
        let opts = QueryOptions::new().fallback(Fallback::Direct);
        let answer = match engine.answer_with(doc, &q, &opts) {
            Ok(a) => a,
            Err(e) => panic!("trial {trial}: engine error {e}"),
        };
        if answer.from_views() {
            planned += 1;
        } else {
            fell_back += 1;
        }
        let direct = engine.answer_direct(doc, &q).unwrap();
        assert_eq!(
            answer.nodes.len(),
            direct.nodes.len(),
            "trial {trial}: node sets differ for {q}\n got {:?}\nwant {:?}",
            answer.nodes,
            direct.nodes
        );
        for ((n1, p1), (n2, p2)) in answer.nodes.iter().zip(&direct.nodes) {
            assert_eq!(n1, n2, "trial {trial}: {q}");
            assert!(
                (p1 - p2).abs() < 1e-8,
                "trial {trial}: {q} at {n1}: {p1} vs {p2}"
            );
        }
    }
    // The workload must actually exercise the rewriting path.
    assert!(
        planned >= 30,
        "too few planned cases: {planned} planned, {fell_back} direct"
    );
}

/// Satellite requirement (serving-layer PR): a warm plan cache. The
/// second arrival of a structurally-equal query is answered without
/// re-planning; `register_view` and `invalidate` bump the catalog epoch
/// and drop cached plans.
#[test]
fn warm_plan_cache_skips_planning() {
    let (pdoc, _) = personnel(10, 2, 5);
    let mut engine = Engine::new();
    let doc = engine.add_document("personnel", pdoc).unwrap();
    engine
        .register_view(View::new("bonuses", p("IT-personnel//person/bonus")))
        .unwrap();
    let epoch0 = engine.catalog_epoch();
    let q = p("IT-personnel//person/bonus[laptop]");
    engine.answer(doc, &q).unwrap();
    assert_eq!(engine.stats().plan_cache_misses, 1, "cold: planned once");
    assert_eq!(engine.stats().plan_cache_hits, 0);
    // Same query again — and a structurally-equal spelling of it (the
    // cache keys on the canonical form, not the text).
    engine.answer(doc, &q).unwrap();
    let respelled = p("IT-personnel//person/bonus[laptop]");
    engine.answer(doc, &respelled).unwrap();
    assert_eq!(
        engine.stats().plan_cache_misses,
        1,
        "warm: never re-planned"
    );
    assert_eq!(engine.stats().plan_cache_hits, 2);
    // Explicit planning shares the same cache.
    engine.plan(&q).unwrap();
    assert_eq!(engine.stats().plan_cache_hits, 3);
    // Different options are a different key.
    let opts = QueryOptions::new().interleaving_limit(123);
    engine.answer_with(doc, &q, &opts).unwrap();
    assert_eq!(engine.stats().plan_cache_misses, 2);
    // Negative outcomes are cached too.
    let hopeless = p("unrelated//thing");
    assert!(engine.answer(doc, &hopeless).is_err());
    assert!(engine.answer(doc, &hopeless).is_err());
    assert_eq!(engine.stats().plan_cache_misses, 3);
    assert_eq!(engine.stats().plan_cache_hits, 4);
    // Registering a view bumps the epoch and drops every cached plan:
    // the next arrival re-plans (it may now have a better rewriting).
    engine
        .register_view(View::new(
            "rick",
            p("IT-personnel//person[name/Rick]/bonus"),
        ))
        .unwrap();
    assert!(engine.catalog_epoch() > epoch0);
    engine.answer(doc, &q).unwrap();
    assert_eq!(engine.stats().plan_cache_misses, 4, "epoch bump re-plans");
    // Invalidation bumps the epoch as well.
    let epoch1 = engine.catalog_epoch();
    engine.invalidate(doc).unwrap();
    assert!(engine.catalog_epoch() > epoch1);
    engine.answer(doc, &q).unwrap();
    assert_eq!(engine.stats().plan_cache_misses, 5);
}

/// The plan cache must not change what is answered: cached and
/// fresh-engine answers are identical, including under concurrency.
#[test]
fn plan_cache_preserves_answers() {
    let (pdoc, _) = personnel(15, 3, 17);
    let mut engine = Engine::new();
    let doc = engine.add_document("personnel", pdoc).unwrap();
    engine
        .register_views([
            View::new("bonuses", p("IT-personnel//person/bonus")),
            View::new("rick", p("IT-personnel//person[name/Rick]/bonus")),
        ])
        .unwrap();
    let q = p("IT-personnel//person/bonus[laptop]");
    let cold = engine.answer(doc, &q).unwrap();
    let cached = engine.answer(doc, &q).unwrap();
    assert_eq!(cold.nodes, cached.nodes);
    assert_eq!(cold.description, cached.description);
    // A concurrent batch of equal queries against a *cold* plan cache:
    // racing workers may each plan once before the first insert lands,
    // but the cache must fill and the answers must match the reference.
    let (pdoc, _) = personnel(15, 3, 17);
    let mut fresh = Engine::new();
    let fresh_doc = fresh.add_document("personnel", pdoc).unwrap();
    fresh
        .register_views([
            View::new("bonuses", p("IT-personnel//person/bonus")),
            View::new("rick", p("IT-personnel//person[name/Rick]/bonus")),
        ])
        .unwrap();
    assert_eq!(fresh.stats().plan_cache_misses, 0, "cache starts cold");
    let batch: Vec<_> = (0..16).map(|_| (fresh_doc, q.clone())).collect();
    let results = fresh.answer_batch_with(&batch, fresh.options(), 4);
    for r in &results {
        assert_eq!(r.as_ref().expect("batch answer").nodes, cold.nodes);
    }
    let misses = fresh.stats().plan_cache_misses;
    assert!(
        (1..=4).contains(&misses),
        "16 equal queries on 4 workers plan between 1 and 4 times, got {misses}"
    );
    assert_eq!(fresh.stats().plan_cache_hits, 16 - misses);
}

/// Satellite regression: invalidation evicts the document's extensions
/// *and* resets its cache counters, so the next query reports a
/// re-materialization — never a stale cache hit.
#[test]
fn invalidation_resets_stats_and_forces_rematerialization() {
    let (pdoc, _) = personnel(10, 2, 3);
    let mut engine = Engine::new();
    let doc = engine.add_document("personnel", pdoc.clone()).unwrap();
    engine
        .register_view(View::new("bonuses", p("IT-personnel//person/bonus")))
        .unwrap();
    let q = p("IT-personnel//person/bonus[laptop]");
    engine.answer(doc, &q).unwrap();
    engine.answer(doc, &q).unwrap();
    let before = engine.doc_stats(doc).unwrap();
    assert_eq!(before.materializations, 1);
    assert_eq!(before.cache_hits, 1);

    let evicted = engine.invalidate(doc).unwrap();
    assert_eq!(evicted, 1, "one cached extension evicted");
    assert_eq!(engine.catalog().cached_extensions(doc), 0);
    let reset = engine.doc_stats(doc).unwrap();
    assert_eq!(reset, Default::default(), "doc counters reset");

    // The regression: post-invalidation queries must re-materialize.
    let after = engine.answer(doc, &q).unwrap();
    assert_eq!(after.stats.materializations, 1, "re-materialized");
    assert_eq!(after.stats.cache_hits, 0, "not a stale cache hit");
    assert_eq!(engine.doc_stats(doc).unwrap().materializations, 1);
    assert_eq!(engine.stats().invalidations, 1);

    // Invalidating an empty cache is a no-op that does not count.
    let mut empty = Engine::new();
    let d = empty.add_document("p", pdoc).unwrap();
    assert_eq!(empty.invalidate(d).unwrap(), 0);
    assert_eq!(empty.stats().invalidations, 0);
}

/// Random documents keyed independently in one shared engine: answers on
/// one document are unaffected by cache entries of another.
#[test]
fn shared_engine_keys_cache_per_document() {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = RandomPDocConfig::default();
    let mut engine = Engine::new();
    engine.register_view(View::new("va", p("a//b"))).unwrap();
    let d1 = engine
        .add_document("d1", random_pdocument(&cfg, &mut rng))
        .unwrap();
    let d2 = engine
        .add_document("d2", random_pdocument(&cfg, &mut rng))
        .unwrap();
    let q = p("a//b");
    let opts = QueryOptions::new().fallback(Fallback::Direct);
    let a1 = engine.answer_with(d1, &q, &opts).unwrap();
    let a2 = engine.answer_with(d2, &q, &opts).unwrap();
    let direct1 = engine.answer_direct(d1, &q).unwrap();
    let direct2 = engine.answer_direct(d2, &q).unwrap();
    assert_eq!(a1.nodes, direct1.nodes);
    assert_eq!(a2.nodes, direct2.nodes);
    // A handle from one engine is meaningless in another with fewer
    // documents: typed UnknownDocument, not a panic or a wrong answer.
    let mut other = Engine::new();
    other.register_view(View::new("va", p("a//b"))).unwrap();
    assert!(matches!(
        other.answer(d2, &q),
        Err(EngineError::UnknownDocument(_))
    ));
}

/// `a` with `n − 1` `/`-children `b`: an `n`-node pattern.
fn wide(n: usize) -> TreePattern {
    use prxview::tpq::Axis;
    let mut q = TreePattern::leaf(prxview::pxml::Label::new("a"));
    for _ in 1..n {
        q.add_child(q.root(), Axis::Child, prxview::pxml::Label::new("b"));
    }
    q
}

/// Patterns wider than the DP's state (`MAX_PATTERN_NODES`, 63) are a
/// typed error before planning and before direct evaluation, never a
/// panic; the widest allowed one is answered, through a view or directly.
#[test]
fn over_wide_patterns_are_typed_errors() {
    use prxview::pxml::text::parse_pdocument;
    use prxview::tpq::MAX_PATTERN_NODES;
    assert_eq!(MAX_PATTERN_NODES, 63);
    let pdoc = parse_pdocument("a[b, c]").unwrap();
    let mut engine = Engine::new();
    let doc = engine.add_document("d", pdoc.clone()).unwrap();
    engine.register_view(View::new("all", p("a"))).unwrap();
    for n in [63, 64, 70] {
        let q = wide(n);
        assert_eq!(q.len(), n);
        for fallback in [Fallback::Forbid, Fallback::Direct] {
            let opts = QueryOptions::new().fallback(fallback);
            let got = engine.answer_with(doc, &q, &opts);
            if n <= MAX_PATTERN_NODES {
                let answer = got.unwrap_or_else(|e| panic!("{n} nodes, {fallback:?}: {e}"));
                assert_eq!(answer.nodes, prxview::peval::eval_tp(&pdoc, &q), "{n}");
                assert_eq!(answer.nodes.len(), 1, "{n}: the root matches");
            } else {
                assert!(
                    matches!(got, Err(EngineError::PatternTooLarge { nodes, max: 63 }) if nodes == n),
                    "{n} nodes, {fallback:?}: {got:?}"
                );
            }
        }
        let direct = engine.answer_direct(doc, &q);
        assert_eq!(direct.is_ok(), n <= MAX_PATTERN_NODES, "{n}: {direct:?}");
        assert_eq!(engine.plan(&q).is_err(), n > MAX_PATTERN_NODES, "{n}");
    }
}

/// `prxview eval` on an over-wide query exits with a parse error, not a
/// panic (exit code 101); at the limit it answers.
#[test]
fn prxview_eval_refuses_over_wide_queries() {
    let path = std::env::temp_dir().join(format!("prxview-wide-{}.pxml", std::process::id()));
    std::fs::write(&path, "a[b, c]").unwrap();
    for (n, ok) in [(63, true), (64, false), (70, false)] {
        let query = format!("a{}", "[b]".repeat(n - 1));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_prxview"))
            .arg("eval")
            .arg(&path)
            .arg(&query)
            .output()
            .expect("prxview runs");
        let code = out.status.code();
        assert_ne!(code, Some(101), "{n} nodes panicked");
        assert_eq!(out.status.success(), ok, "{n} nodes: exit {code:?}");
        if !ok {
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("more than 63 nodes"), "{n}: {err}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}
