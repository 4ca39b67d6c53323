//! Differential tests: every engine execution path — single-view TP
//! plans, TP∩ plans, direct fallback, and the concurrent batch path — is
//! checked against brute-force possible-worlds enumeration
//! (`pxml::worlds`) on randomized small documents, views and queries.
//! Parallel caching bugs are exactly the kind that slip past
//! example-based tests, so the batch path is additionally required to be
//! *bit-identical* to sequential answering at every thread count.

use prxview::engine::{DocId, Engine, Fallback, PlanPreference, QueryOptions};
use prxview::pxml::generators::{random_pdocument, RandomPDocConfig};
use prxview::pxml::{NodeId, PDocument};
use prxview::rewrite::View;
use prxview::tpq::generators::{random_pattern, RandomPatternConfig};
use prxview::tpq::TreePattern;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `q(P̂)` by brute force: enumerate `⟦P̂⟧` and, for every ordinary node,
/// sum the probability of the worlds where the query selects it. Ground
/// truth for everything the engine computes; exponential, so documents
/// stay tiny. Returns `None` when the world space exceeds the limit.
fn brute_force(pdoc: &PDocument, q: &TreePattern) -> Option<Vec<(NodeId, f64)>> {
    let space = pdoc.px_space_limited(1 << 14)?;
    let mut out: Vec<(NodeId, f64)> = pdoc
        .ordinary_ids()
        .map(|n| {
            let p =
                space.probability_where(|w| w.contains(n) && prxview::tpq::embed::selects(q, w, n));
            (n, p)
        })
        .filter(|&(_, p)| p > 1e-12)
        .collect();
    out.sort_by_key(|&(n, _)| n);
    Some(out)
}

fn assert_close(got: &[(NodeId, f64)], want: &[(NodeId, f64)], ctx: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "{ctx}: answer sets differ\n got {got:?}\nwant {want:?}"
    );
    for ((n1, p1), (n2, p2)) in got.iter().zip(want) {
        assert_eq!(n1, n2, "{ctx}");
        assert!((p1 - p2).abs() < 1e-9, "{ctx}: node {n1}: {p1} vs {p2}");
    }
}

fn small_doc_cfg() -> RandomPDocConfig {
    RandomPDocConfig {
        max_depth: 4,
        max_children: 3,
        dist_density: 0.5,
        target_size: 12,
        ..RandomPDocConfig::default()
    }
}

/// TP path (and direct fallback) vs possible-worlds enumeration: the
/// catalog holds prefix views of the query, so most trials answer through
/// a TP plan; whatever route is taken must match the enumeration.
#[test]
fn tp_and_fallback_answers_match_possible_worlds() {
    let mut rng = StdRng::seed_from_u64(20260726);
    let doc_cfg = small_doc_cfg();
    let pat_cfg = RandomPatternConfig {
        mb_len: 3,
        preds_per_node: 0.5,
        pred_depth: 1,
        ..RandomPatternConfig::default()
    };
    let mut checked = 0usize;
    let mut planned = 0usize;
    for trial in 0..80 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        let q = random_pattern(&pat_cfg, &mut rng);
        let Some(want) = brute_force(&pdoc, &q) else {
            continue;
        };
        let mut engine = Engine::new();
        let doc = engine.add_document("rand", pdoc).unwrap();
        let views: Vec<View> = (1..=q.mb_len())
            .map(|k| View::new(format!("prefix{k}"), q.prefix(k)))
            .collect();
        engine.register_views(views).unwrap();
        let opts = QueryOptions::new().fallback(Fallback::Direct);
        let answer = engine.answer_with(doc, &q, &opts).expect("fallback on");
        if answer.from_views() {
            planned += 1;
        }
        assert_close(&answer.nodes, &want, &format!("trial {trial}: {q}"));
        checked += 1;
    }
    assert!(checked >= 40, "too few enumerable trials: {checked}");
    assert!(planned >= 20, "too few planned trials: {planned}/{checked}");
}

/// TP∩ path vs possible-worlds enumeration: per-main-branch-node
/// predicate restrictions of the query form the catalog, which TPIrewrite
/// can often recombine into an equivalent intersection.
#[test]
fn tpi_answers_match_possible_worlds() {
    let mut rng = StdRng::seed_from_u64(77);
    let doc_cfg = small_doc_cfg();
    let pat_cfg = RandomPatternConfig {
        mb_len: 2,
        preds_per_node: 1.2,
        pred_depth: 1,
        ..RandomPatternConfig::default()
    };
    let mut planned_tpi = 0usize;
    for trial in 0..80 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        let q = random_pattern(&pat_cfg, &mut rng);
        let Some(want) = brute_force(&pdoc, &q) else {
            continue;
        };
        let mut engine = Engine::new();
        let doc = engine.add_document("rand", pdoc).unwrap();
        // One view per main-branch node keeping only that node's
        // predicates, plus the bare main branch.
        let mut views: Vec<View> = q
            .main_branch()
            .iter()
            .enumerate()
            .filter(|&(_, &n)| q.has_predicates(n))
            .map(|(i, &n)| View::new(format!("v{i}"), q.filter_predicates(|m, _| m == n)))
            .collect();
        views.push(View::new("mb", q.main_branch_only()));
        engine.register_views(views).unwrap();
        let opts = QueryOptions::new()
            .plan_preference(PlanPreference::TpiOnly)
            .fallback(Fallback::Direct);
        let answer = engine.answer_with(doc, &q, &opts).expect("fallback on");
        if answer.from_views() {
            planned_tpi += 1;
        }
        assert_close(&answer.nodes, &want, &format!("trial {trial}: {q}"));
    }
    assert!(
        planned_tpi >= 10,
        "too few TP∩-planned trials: {planned_tpi}"
    );
}

/// The batch path vs possible-worlds enumeration *and* sequential
/// answering: one shared engine, several documents, a mixed query load.
/// Batch answers must be bit-identical (`==` on the f64s) to sequential
/// ones at every thread count — same plans, same extensions, same DP —
/// and correct against the enumeration whenever it is feasible.
#[test]
fn batch_answers_match_sequential_and_possible_worlds() {
    let mut rng = StdRng::seed_from_u64(4242);
    let doc_cfg = small_doc_cfg();
    let pat_cfg = RandomPatternConfig {
        mb_len: 2,
        preds_per_node: 0.6,
        pred_depth: 1,
        ..RandomPatternConfig::default()
    };
    let mut engine = Engine::new();
    let mut docs: Vec<DocId> = Vec::new();
    for i in 0..4 {
        let pdoc = random_pdocument(&doc_cfg, &mut rng);
        docs.push(engine.add_document(format!("d{i}"), pdoc).unwrap());
    }
    // A catalog of random views shared by every document.
    let views: Vec<View> = (0..6)
        .map(|i| View::new(format!("v{i}"), random_pattern(&pat_cfg, &mut rng)))
        .collect();
    engine.register_views(views).unwrap();
    let batch: Vec<(DocId, TreePattern)> = (0..48)
        .map(|i| (docs[i % docs.len()], random_pattern(&pat_cfg, &mut rng)))
        .collect();
    let opts = QueryOptions::new().fallback(Fallback::Direct);

    // Sequential ground truth on a fresh clone (cold catalog, like each
    // batch run below starts from).
    let (sequential, seq_mats) = {
        let fresh = engine.clone();
        let answers: Vec<_> = batch
            .iter()
            .map(|(d, q)| fresh.answer_with(*d, q, &opts).expect("fallback on"))
            .collect();
        (answers, fresh.stats().materializations)
    };
    // Spot-check the sequential answers against the enumeration.
    let mut enumerated = 0usize;
    for ((doc, q), answer) in batch.iter().zip(&sequential) {
        let pdoc = engine.document(*doc).unwrap();
        if let Some(want) = brute_force(&pdoc, q) {
            assert_close(&answer.nodes, &want, &format!("{q}"));
            enumerated += 1;
        }
    }
    assert!(enumerated >= 24, "too few enumerable queries: {enumerated}");

    for threads in [1usize, 2, 4, 8] {
        let fresh = engine.clone();
        let results = fresh.answer_batch_with(&batch, &opts, threads);
        for (i, (got, want)) in results.iter().zip(&sequential).enumerate() {
            let got = got.as_ref().expect("batch answer");
            assert_eq!(
                got.nodes, want.nodes,
                "threads={threads}, query {i}: batch must be bit-identical to sequential"
            );
            assert_eq!(got.description, want.description, "threads={threads}");
        }
        // Single-flight: concurrency must not duplicate any
        // materialization a sequential run performs exactly once.
        assert_eq!(
            fresh.stats().materializations,
            seq_mats,
            "threads={threads}: batch materializes exactly what sequential does"
        );
    }
}

/// FNV-1a 64 over `(node id, probability bits)` of an answer list.
fn answer_hash(answers: &[(NodeId, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(n, p) in answers {
        for b in u64::from(n.0)
            .to_le_bytes()
            .into_iter()
            .chain(p.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The single-view TP plan of `q` over `view`, evaluated by `answer_tp`.
fn tp_answers(pdoc: &PDocument, view: &View, q: &str) -> Vec<(NodeId, f64)> {
    let q = prxview::tpq::parse::parse_pattern(q).unwrap();
    let rw = prxview::rewrite::tp_rewrite(&q, std::slice::from_ref(view))
        .into_iter()
        .next()
        .unwrap_or_else(|| panic!("{q} has a TP plan over {}", view.name));
    let ext = prxview::rewrite::ProbExtension::materialize(pdoc, view);
    prxview::rewrite::fr_tp::answer_tp(&rw, &ext)
}

/// A small extracted product catalog (brand alternatives, listings with
/// uncertain ratings and possibly spurious offers).
fn catalog(n_products: usize, seed: u64) -> PDocument {
    use prxview::pxml::{Label, PKind};
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pdoc = PDocument::new(Label::new("catalog"));
    let brands = ["acme", "globex", "initech"];
    for i in 0..n_products {
        let prod = pdoc.add_ordinary(pdoc.root(), Label::new("product"), 1.0);
        let brand = pdoc.add_ordinary(prod, Label::new("brand"), 1.0);
        let mux = pdoc.add_dist(brand, PKind::Mux, 1.0);
        let conf = rng.gen_range(0.55..0.95);
        pdoc.add_ordinary(mux, Label::new(brands[i % 3]), conf);
        pdoc.add_ordinary(mux, Label::new(brands[(i + 1) % 3]), 1.0 - conf);
        for _ in 0..rng.gen_range(1..=2usize) {
            let listing = pdoc.add_ordinary(prod, Label::new("listing"), 1.0);
            let ind = pdoc.add_dist(listing, PKind::Ind, 1.0);
            let rating = pdoc.add_ordinary(ind, Label::new("rating"), rng.gen_range(0.5..0.99));
            let stars = if rng.gen_bool(0.5) { "good" } else { "poor" };
            pdoc.add_ordinary(rating, Label::new(stars), 1.0);
            let omux = pdoc.add_dist(listing, PKind::Mux, 1.0);
            let offer = pdoc.add_ordinary(omux, Label::new("offer"), rng.gen_range(0.6..1.0));
            pdoc.add_ordinary(offer, Label::new("price"), 1.0);
        }
    }
    pdoc
}

/// Golden answers: view-based evaluation must stay *bit-identical* across
/// refactors of the evaluation path, not merely close. Each case hashes
/// `(node id, probability bits)` of its answer list; the pinned values
/// were computed by the copy-per-result evaluator (every result subtree
/// copied into a standalone p-document before its DPs ran). Cases cover
/// Theorem 1's unique-ancestor division, both inclusion–exclusion `α`
/// shapes, and two TP∩ plans (one with compensated parts).
#[test]
fn view_answers_are_bit_identical_to_golden_hashes() {
    use prxview::pxml::generators::personnel;
    use prxview::pxml::text::parse_pdocument;
    use prxview::rewrite::{answer::answer_tpi, plan_checked, Plan, DEFAULT_INTERLEAVING_LIMIT};
    use prxview::tpq::parse::parse_pattern;

    let mut got: Vec<(String, u64)> = Vec::new();
    let v1 = View::new(
        "v1BON",
        parse_pattern("IT-personnel//person[name/Rick]/bonus").unwrap(),
    );
    let v2 = View::new(
        "v2BON",
        parse_pattern("IT-personnel//person/bonus").unwrap(),
    );
    for seed in 1..=3 {
        let (pdoc, _) = personnel(60, 3, seed);
        for q in [
            "IT-personnel//person/bonus[laptop]",
            "IT-personnel//person/bonus[pda]",
            "IT-personnel//person/bonus[tablet]",
            "IT-personnel//person/bonus",
        ] {
            got.push((
                format!("s{seed} {q}"),
                answer_hash(&tp_answers(&pdoc, &v2, q)),
            ));
        }
        let q = "IT-personnel//person[name/Rick]/bonus[laptop]";
        got.push((
            format!("s{seed} {q}"),
            answer_hash(&tp_answers(&pdoc, &v1, q)),
        ));
    }

    // Several selected ancestors, full-token α (s > m).
    let nested =
        parse_pdocument("a#0[b#1[ind#2(0.7: b#3[mux#4(0.6: c#5)]), mux#6(0.3: c#7)]]").unwrap();
    let view = View::new("v", parse_pattern("a//b").unwrap());
    got.push((
        "nested a//b//c".into(),
        answer_hash(&tp_answers(&nested, &view, "a//b//c")),
    ));
    // Several selected ancestors, partial-token α (s ≤ m).
    let chain = parse_pdocument(
        "a#0[b#1[c#2[b#3[c#4[ind#5(0.5: e#6), mux#7(0.4: c#8[b#9[c#10[ind#11(0.3: e#12), d#13]]])]]]]]",
    )
    .unwrap();
    let view = View::new("v", parse_pattern("a//b/c/b/c[e]").unwrap());
    got.push((
        "chain a//b/c/b/c[e]//d".into(),
        answer_hash(&tp_answers(&chain, &view, "a//b/c/b/c[e]//d")),
    ));

    // The catalog TP∩ query: two one-aspect views plus the appearance view.
    let pdoc = catalog(24, 7);
    let views = vec![
        View::new(
            "acme",
            parse_pattern("catalog/product[brand/acme]/listing/offer").unwrap(),
        ),
        View::new(
            "liked",
            parse_pattern("catalog/product/listing[rating/good]/offer").unwrap(),
        ),
        View::new(
            "all",
            parse_pattern("catalog/product/listing/offer").unwrap(),
        ),
    ];
    let q = parse_pattern("catalog/product[brand/acme]/listing[rating/good]/offer").unwrap();
    let Ok(Plan::Tpi(rw)) = plan_checked(
        &q,
        &views,
        DEFAULT_INTERLEAVING_LIMIT,
        PlanPreference::TpiOnly,
    ) else {
        panic!("the catalog query has a TP∩ plan");
    };
    let exts: Vec<_> = views
        .iter()
        .map(|v| prxview::rewrite::ProbExtension::materialize(&pdoc, v))
        .collect();
    got.push(("catalog TP∩".into(), answer_hash(&answer_tpi(&rw, &exts))));

    // qRBON forced onto a TP∩ plan whose compensated parts run `fr` over
    // v1BON and a laptop view.
    let (pdoc, _) = personnel(60, 3, 1);
    let views = vec![
        v1,
        v2,
        View::new(
            "vLAP",
            parse_pattern("IT-personnel//person/bonus[laptop]").unwrap(),
        ),
    ];
    let q = parse_pattern("IT-personnel//person[name/Rick]/bonus[laptop]").unwrap();
    let Ok(Plan::Tpi(rw)) = plan_checked(
        &q,
        &views,
        DEFAULT_INTERLEAVING_LIMIT,
        PlanPreference::TpiOnly,
    ) else {
        panic!("qRBON has a TP∩ plan");
    };
    let exts: Vec<_> = views
        .iter()
        .map(|v| prxview::rewrite::ProbExtension::materialize(&pdoc, v))
        .collect();
    got.push(("qRBON TP∩".into(), answer_hash(&answer_tpi(&rw, &exts))));

    let want: [u64; 19] = [
        0xf6b4_b5ce_6a74_356c,
        0xbaa3_f135_6286_56ec,
        0x6e50_22a5_848c_04be,
        0x0562_5680_c6aa_c95a,
        0x2322_5270_9549_9045,
        0xab12_d57d_9401_1015,
        0x15e4_8d33_98a5_d305,
        0xd912_3889_533e_1a78,
        0x516d_b976_068c_2d39,
        0x125b_0e18_2357_5523,
        0x8f05_9147_b5cc_b94e,
        0x08d6_33f3_e21e_4102,
        0xbaa4_2775_078d_8030,
        0x8c8c_6da2_b220_80e9,
        0x1281_8401_77ed_2949,
        0xce74_fdec_2edc_25b1,
        0x8286_3f3a_09aa_b5e2,
        0xbc21_7a48_1b65_6b6e,
        0x2322_5270_9549_9045,
    ];
    assert_eq!(got.len(), want.len());
    for ((name, g), w) in got.iter().zip(want) {
        assert_eq!(*g, w, "{name}: answer hash {g:#018x}, pinned {w:#018x}");
    }
}

/// A quoted pattern label can spell an extension's `Id(n)` marker. Through
/// a view such a query could match the marker instead of a document node,
/// so planning refuses it for every plan shape: under `Fallback::Direct`
/// the answer equals direct evaluation, and without a fallback the engine
/// reports the typed reason.
#[test]
fn marker_labels_in_queries_are_answered_directly() {
    use prxview::pxml::examples_paper::fig2_pper;
    use prxview::rewrite::PlanError;
    use prxview::tpq::parse::parse_pattern;

    let pdoc = fig2_pper();
    let mut engine = Engine::new();
    let doc = engine.add_document("pper", pdoc.clone()).unwrap();
    engine
        .register_views(vec![
            View::new(
                "v2BON",
                parse_pattern("IT-personnel//person/bonus").unwrap(),
            ),
            View::new(
                "v1BON",
                parse_pattern("IT-personnel//person[name/Rick]/bonus").unwrap(),
            ),
        ])
        .unwrap();
    for q in [
        "IT-personnel//person/bonus['Id(5)']",
        "IT-personnel//person[name/Rick]/bonus['Id(5)']",
        "IT-personnel//person['Id(2)']/bonus",
    ] {
        let q = parse_pattern(q).unwrap();
        let want = prxview::peval::eval_tp(&pdoc, &q);
        for preference in [PlanPreference::PreferTp, PlanPreference::TpiOnly] {
            let opts = QueryOptions::new()
                .plan_preference(preference)
                .fallback(Fallback::Direct);
            let answer = engine.answer_with(doc, &q, &opts).expect("fallback on");
            assert!(
                !answer.from_views(),
                "{q} ({preference:?}) went through a view"
            );
            assert_eq!(answer.nodes, want, "{q} ({preference:?})");
            let refused =
                engine.answer_with(doc, &q, &QueryOptions::new().plan_preference(preference));
            assert!(
                matches!(
                    refused,
                    Err(prxview::engine::EngineError::Plan(
                        PlanError::ReservedLabel(_)
                    ))
                ),
                "{q} ({preference:?}): {refused:?}"
            );
        }
    }
}

/// FNV-1a 64 over the bits of a probability list.
fn bits_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in values.iter().flat_map(|p| p.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A small random p-document over labels `a`–`d` using all four
/// distributional kinds (`mux`, `ind`, `det`, `exp`), with `mux` masses
/// that often round to just under (or over) 1 — the inputs on which the
/// DP's `|p − 1| < 1e-15` identity shortcut decides the last bits.
fn random_all_kinds(rng: &mut StdRng) -> PDocument {
    use prxview::pxml::{Label, PKind};
    use rand::Rng;
    let labels = ["a", "b", "c", "d"];
    let lab = |rng: &mut StdRng| Label::new(labels[rng.gen_range(0..labels.len())]);
    let mut p = PDocument::new(Label::new("a"));
    let mut frontier = vec![(p.root(), 1usize)];
    let mut count = 1usize;
    while let Some((node, depth)) = frontier.pop() {
        if depth >= 4 || count >= 11 {
            continue;
        }
        for _ in 0..rng.gen_range(1..=3usize) {
            let kind = rng.gen_range(0..6u32);
            let (parent, prob) = match kind {
                0 => {
                    let m = p.add_dist(node, PKind::Mux, 1.0);
                    // 0.1 + 0.2 + 0.7 and 0.7 + 0.2 + 0.1 miss 1 by an ulp.
                    let [x, y, z] = if rng.gen::<bool>() {
                        [0.1, 0.2, 0.7]
                    } else {
                        [0.7, 0.2, 0.1]
                    };
                    for pr in [x, y, z] {
                        let c = p.add_ordinary(m, lab(rng), pr);
                        count += 1;
                        frontier.push((c, depth + 1));
                    }
                    continue;
                }
                1 => (p.add_dist(node, PKind::Ind, 1.0), rng.gen_range(0.05..0.95)),
                2 => (p.add_dist(node, PKind::Det, 1.0), 1.0),
                3 => {
                    let e = p.add_dist(node, PKind::Exp(Vec::new()), 1.0);
                    let a = p.add_ordinary(e, lab(rng), 1.0);
                    let b = p.add_ordinary(e, lab(rng), 1.0);
                    let w: f64 = rng.gen_range(0.1..0.5);
                    p.set_exp_distribution(e, vec![(0b11, w), (0b01, 0.3), (0b10, 0.7 - w)]);
                    count += 2;
                    frontier.push((a, depth + 1));
                    frontier.push((b, depth + 1));
                    continue;
                }
                _ => (node, 1.0),
            };
            let c = p.add_ordinary(parent, lab(rng), prob);
            if parent != node && rng.gen::<bool>() {
                // A second child under the same ind/det node.
                let d = p.add_ordinary(parent, lab(rng), prob * 0.5);
                count += 1;
                frontier.push((d, depth + 1));
            }
            count += 1;
            frontier.push((c, depth + 1));
        }
    }
    assert!(p.validate().is_ok(), "{p}");
    p
}

/// More golden bits, pinned at commit `a2fc73a` (the `HashMap`-based DP):
/// direct evaluation (`eval_tp`) over the personnel fixture, a seeded
/// family of small p-documents with every distributional kind, TP∩ and
/// joint probabilities with two targets, `explain_tp` values, and each
/// extension's denominators and bundled result probabilities.
#[test]
fn dp_paths_are_bit_identical_to_golden_hashes() {
    use prxview::pxml::examples_paper::fig2_pper;
    use prxview::pxml::generators::personnel;
    use prxview::pxml::text::parse_pdocument;
    use prxview::rewrite::explain::explain_tp;
    use prxview::rewrite::ProbExtension;
    use prxview::tpq::parse::parse_pattern;

    let p = |s: &str| parse_pattern(s).unwrap();
    let mut got: Vec<(String, u64)> = Vec::new();

    // Direct evaluation over personnel(60, 3, s).
    for seed in 1..=3 {
        let (pdoc, _) = personnel(60, 3, seed);
        for q in [
            "IT-personnel//person/bonus[laptop]",
            "IT-personnel//person[name/Rick]/bonus[laptop]",
            "IT-personnel//bonus//pda",
        ] {
            let answers = prxview::peval::eval_tp(&pdoc, &p(q));
            got.push((format!("eval_tp s{seed} {q}"), answer_hash(&answers)));
        }
    }

    // Random documents with every kind: direct answers, Boolean
    // conjunctions, TP∩ at every candidate and two-target joints.
    let mut rng = StdRng::seed_from_u64(0x5eed_0028);
    let pat_cfg = RandomPatternConfig {
        mb_len: 2,
        preds_per_node: 0.8,
        pred_depth: 1,
        labels: ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect(),
        ..RandomPatternConfig::default()
    };
    let mut family = Vec::new();
    for _ in 0..60 {
        let pdoc = random_all_kinds(&mut rng);
        let q1 = random_pattern(&pat_cfg, &mut rng);
        let q2 = random_pattern(&pat_cfg, &mut rng);
        let mut bits = Vec::new();
        for q in [&q1, &q2] {
            for (n, pr) in prxview::peval::eval_tp(&pdoc, q) {
                bits.push(f64::from(n.0));
                bits.push(pr);
            }
        }
        bits.push(prxview::peval::dp::boolean_conjunction_probability(
            &pdoc,
            &[q1.clone(), q2.clone()],
        ));
        let cands = prxview::peval::candidates(&pdoc, &q1);
        for &n in &cands {
            bits.push(prxview::peval::eval_intersection_at(
                &pdoc,
                &[q1.clone(), q2.clone()],
                n,
            ));
        }
        if let [first, .., last] = cands[..] {
            bits.push(prxview::peval::joint_probability(
                &pdoc,
                &[(&q1, first), (&q2, last), (&q1, last)],
            ));
        }
        family.push(bits_hash(&bits));
    }
    got.push(("random all-kinds family".into(), {
        let folded: Vec<f64> = family.iter().map(|&h| f64::from_bits(h)).collect();
        bits_hash(&folded)
    }));
    // The identity shortcut on an exact-looking mux: 0.7 + 0.2 + 0.1
    // sums to 1 − 2⁻⁵³ before the leftover mass is added.
    let ulp =
        parse_pdocument("a#0[mux#1(0.7: x#2, 0.2: y#3, 0.1: z#4), ind#5(0.7: b#6[c#7])]").unwrap();
    got.push((
        "mux mass under 1".into(),
        bits_hash(&[
            prxview::peval::eval_tp_at(&ulp, &p("a/b[c]"), NodeId(6)),
            prxview::peval::dp::boolean_probability(&ulp, &p("a[x]/b")),
        ]),
    ));

    // TP∩ at a node and joint probabilities with two targets.
    let pper = fig2_pper();
    let (pers, _) = personnel(60, 3, 2);
    let v2 = p("IT-personnel//person/bonus");
    let rick = p("IT-personnel//person[name/Rick]/bonus");
    let lap = p("IT-personnel//person/bonus[laptop]");
    let mut bits = vec![
        prxview::peval::eval_intersection_at(&pper, &[rick.clone(), lap.clone()], NodeId(5)),
        prxview::peval::joint_probability(&pper, &[(&v2, NodeId(5)), (&v2, NodeId(7))]),
        prxview::peval::joint_probability(&pper, &[(&rick, NodeId(5)), (&lap, NodeId(7))]),
    ];
    let bonuses = prxview::peval::candidates(&pers, &v2);
    for w in bonuses.windows(2).take(12) {
        bits.push(prxview::peval::eval_intersection_at(
            &pers,
            &[rick.clone(), lap.clone()],
            w[0],
        ));
        bits.push(prxview::peval::joint_probability(
            &pers,
            &[(&lap, w[0]), (&rick, w[1])],
        ));
    }
    got.push(("intersection and joint".into(), bits_hash(&bits)));

    // explain_tp values and extension denominators / result probabilities.
    let nested =
        parse_pdocument("a#0[b#1[ind#2(0.7: b#3[mux#4(0.6: c#5)]), mux#6(0.3: c#7)]]").unwrap();
    let chain = parse_pdocument(
        "a#0[b#1[c#2[b#3[c#4[ind#5(0.5: e#6), mux#7(0.4: c#8[b#9[c#10[ind#11(0.3: e#12), d#13]]])]]]]]",
    )
    .unwrap();
    let cases: Vec<(&str, PDocument, View, &str)> = vec![
        (
            "pers v2BON",
            pers.clone(),
            View::new("v2BON", v2.clone()),
            "IT-personnel//person/bonus[laptop]",
        ),
        (
            "pers v1BON",
            pers,
            View::new("v1BON", rick.clone()),
            "IT-personnel//person[name/Rick]/bonus[laptop]",
        ),
        ("nested", nested, View::new("v", p("a//b")), "a//b//c"),
        (
            "chain",
            chain,
            View::new("v", p("a//b/c/b/c[e]")),
            "a//b/c/b/c[e]//d",
        ),
        (
            "pper v1BON",
            pper,
            View::new("v1BON", rick),
            "IT-personnel//person[name/Rick]/bonus[laptop]",
        ),
    ];
    for (name, pdoc, view, q) in cases {
        let q = p(q);
        let ext = ProbExtension::materialize(&pdoc, &view);
        let rw = prxview::rewrite::tp_rewrite(&q, std::slice::from_ref(&view))
            .into_iter()
            .next()
            .expect("a TP plan");
        let mut bits: Vec<f64> = ext.denominators().to_vec();
        bits.extend(ext.results.iter().map(|r| r.prob));
        got.push((format!("{name} extension"), bits_hash(&bits)));
        let explained: Vec<f64> = ext
            .candidates(&rw.compensation)
            .into_iter()
            .map(|n| explain_tp(&rw, &ext, n).value())
            .collect();
        got.push((format!("{name} explain_tp"), bits_hash(&explained)));
    }

    let want: [u64; 22] = [
        0x0d08_b23f_3da6_5560,
        0x408f_1808_099e_507a,
        0x2326_554b_25c8_824c,
        0xe105_cfec_58f4_d475,
        0xaa5a_9388_9b1d_012a,
        0x1f30_f539_0a8e_9eb2,
        0x6d0f_9cb1_a218_7457,
        0x2f6e_7396_0a8d_aae7,
        0xff90_b1bd_ac28_42d5,
        0x11fd_88b3_ef2b_bbf5,
        0x163e_96d7_8830_8c1f,
        0xe4ed_0c98_579a_33e8,
        0x2811_814c_e0e4_d2a5,
        0x16af_96bd_3a14_47a9,
        0xee6b_ccf6_05af_52af,
        0x06d1_6299_cde3_1249,
        0x4c02_cf5d_8887_bd33,
        0xe5c7_d068_59d1_5457,
        0x7efc_5258_3bd0_ba95,
        0x626c_6dcb_c733_d53b,
        0x2bfd_cbea_19be_ef7d,
        0x50d9_1cc0_efcc_6f88,
    ];
    assert_eq!(got.len(), want.len());
    for ((name, g), w) in got.iter().zip(want) {
        assert_eq!(*g, w, "{name}: hash {g:#018x}, pinned {w:#018x}");
    }
}

/// Two patterns rooted at `a` (the root of [`random_all_kinds`]
/// documents) from a fixed mix of axes and predicates.
fn two_patterns(rng: &mut StdRng) -> (TreePattern, TreePattern) {
    use rand::Rng;
    const PATTERNS: [&str; 8] = [
        "a//b",
        "a/b[c]",
        "a//c",
        "a[b]//d",
        "a/c",
        "a//b[.//d]",
        "a/d/b",
        "a[c][d]",
    ];
    let mut pick =
        || prxview::tpq::parse::parse_pattern(PATTERNS[rng.gen_range(0..PATTERNS.len())]).unwrap();
    (pick(), pick())
}

/// The column kernel against possible-world enumeration on small
/// p-documents with every distributional kind: direct answers, Boolean
/// conjunctions and two-target joints all within 1e-12.
#[test]
fn column_kernel_matches_possible_worlds_on_every_kind() {
    let mut rng = StdRng::seed_from_u64(0xc01_0528);
    let (mut checked, mut answered) = (0, 0);
    for trial in 0..80 {
        let pdoc = random_all_kinds(&mut rng);
        let (q1, q2) = two_patterns(&mut rng);
        let Some(space) = pdoc.px_space_limited(1 << 14) else {
            continue;
        };
        let want = brute_force(&pdoc, &q1).expect("enumerable");
        let got = prxview::peval::eval_tp(&pdoc, &q1);
        answered += got.len();
        assert_eq!(got.len(), want.len(), "trial {trial}: {q1}\n{pdoc}");
        for ((n1, p1), (n2, p2)) in got.iter().zip(&want) {
            assert_eq!(n1, n2, "trial {trial}");
            assert!(
                (p1 - p2).abs() < 1e-12,
                "trial {trial} {q1} at {n1}: {p1} vs {p2}"
            );
        }
        let both =
            prxview::peval::dp::boolean_conjunction_probability(&pdoc, &[q1.clone(), q2.clone()]);
        let exact = space.probability_where(|w| {
            prxview::tpq::embed::matches(&q1, w) && prxview::tpq::embed::matches(&q2, w)
        });
        assert!(
            (both - exact).abs() < 1e-12,
            "trial {trial}: {both} vs {exact}"
        );
        let ids: Vec<NodeId> = pdoc.ordinary_ids().collect();
        let (m, n) = (ids[trial % ids.len()], ids[(trial / 2) % ids.len()]);
        let joint = prxview::peval::joint_probability(&pdoc, &[(&q1, m), (&q2, n)]);
        let exact = space.probability_where(|w| {
            w.contains(m)
                && w.contains(n)
                && prxview::tpq::embed::selects(&q1, w, m)
                && prxview::tpq::embed::selects(&q2, w, n)
        });
        assert!(
            (joint - exact).abs() < 1e-12,
            "trial {trial}: {joint} vs {exact}"
        );
        checked += 1;
    }
    assert!(checked >= 60, "too few enumerable trials: {checked}");
    assert!(answered >= 60, "too few answers: {answered}");
}

/// A virtual pin is bit-identical to a real one: a certain child with a
/// fresh label appended below the target, and the same label as a
/// `/`-child of each pattern's output, evaluated with no pins at all.
#[test]
fn virtual_pins_are_bit_identical_to_real_pin_children() {
    use prxview::pxml::Label;
    use prxview::tpq::Axis;
    /// `pdoc` with a pin child per target (appended last, as pinning a
    /// copy always did) and each pattern with its target's pin under the
    /// output.
    fn pin(pdoc: &PDocument, specs: &[(&TreePattern, NodeId)]) -> (PDocument, Vec<TreePattern>) {
        let mut doc = pdoc.clone();
        let mut labels: Vec<(NodeId, Label)> = Vec::new();
        let patterns = specs
            .iter()
            .map(|&(q, n)| {
                let label = match labels.iter().find(|l| l.0 == n) {
                    Some(&(_, l)) => l,
                    None => {
                        let l = Label::new(&format!("pin-{}", labels.len()));
                        doc.add_ordinary(n, l, 1.0);
                        labels.push((n, l));
                        l
                    }
                };
                let mut p = q.clone();
                p.add_child(q.output(), Axis::Child, label);
                p
            })
            .collect();
        (doc, patterns)
    }
    let mut rng = StdRng::seed_from_u64(0x0b17_0528);
    let bits = |specs: &[(&TreePattern, NodeId)], pdoc: &PDocument| {
        let (doc, patterns) = pin(pdoc, specs);
        prxview::peval::dp::boolean_conjunction_probability(&doc, &patterns).to_bits()
    };
    let mut compared = 0;
    for _ in 0..60 {
        let pdoc = random_all_kinds(&mut rng);
        let (q1, q2) = two_patterns(&mut rng);
        let cands = prxview::peval::candidates(&pdoc, &q1);
        for &n in &cands {
            let single = prxview::peval::eval_tp_at(&pdoc, &q1, n);
            assert_eq!(single.to_bits(), bits(&[(&q1, n)], &pdoc), "{q1} at {n}");
            let both = prxview::peval::eval_intersection_at(&pdoc, &[q1.clone(), q2.clone()], n);
            assert_eq!(
                both.to_bits(),
                bits(&[(&q1, n), (&q2, n)], &pdoc),
                "∩ at {n}"
            );
            let m = cands[0];
            let joint = prxview::peval::joint_probability(&pdoc, &[(&q1, n), (&q2, m), (&q1, m)]);
            assert_eq!(
                joint.to_bits(),
                bits(&[(&q1, n), (&q2, m), (&q1, m)], &pdoc),
                "joint at {n}, {m}"
            );
            compared += 1;
        }
    }
    assert!(compared >= 50, "too few candidates compared: {compared}");
}
