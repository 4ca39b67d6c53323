//! The traced run: times calls into each layer's public functions from
//! the benchmark's own code, inner to outer, records them as spans, checks
//! that the ladder nests, and reports each layer's self time.
//!
//! ```text
//!   wire QUERY (server)  ≥  Engine::answer (engine)  ≥  answer_tp / execute_tpi (rewrite)
//!                                                    ≥  Σ per-candidate fr (rewrite)
//! ```

use crate::fixture::{self, EditStream, Fixture};
use crate::oracle::{identical, Nodes, Oracle};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::wire::{
    check_ext_identity, read_loop, setup, start_server, stat, Expect, Picker, ReadOut, Rendered,
};
use crate::workload::{config, mirrors, work_dir, Workload};
use pxv_engine::{DocId, Engine, Plan, PlanPreference, QueryOptions};
use pxv_pxml::{NodeId, PDocument};
use pxv_rewrite::answer::execute_tpi;
use pxv_rewrite::fr_tp::{answer_tp, fr_tp};
use pxv_rewrite::tp_rewrite::TpRewriting;
use pxv_rewrite::tpi_algorithm::TpiRewriting;
use pxv_rewrite::tpi_rewrite::VirtualView;
use pxv_rewrite::view::id_label;
use pxv_rewrite::{ProbExtension, View};
use pxv_server::client::{Client, ClientError};
use pxv_tpq::{Axis, TreePattern};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Noise allowance of the nesting check: an outer layer's median may read
/// up to this share below an inner layer's before the ladder counts as
/// broken (adjacent rungs can differ by only a few microseconds).
const NEST_SLACK: f64 = 0.05;

/// `q` with an `Id(n)` marker under its output (pins the output to `n`).
fn mark_output(q: &TreePattern, n: NodeId) -> TreePattern {
    let mut m = q.clone();
    m.add_child(q.output(), Axis::Child, id_label(n));
    m
}

/// `answer_tp` rebuilt from the public functions it calls, one span per
/// call, so self time splits across rewrite, peval and tpq. Nodes with
/// several selected ancestors go through `fr_tp` whole.
fn answer_tp_replica(t: &mut Tracer, rw: &TpRewriting, ext: &ProbExtension) -> Nodes {
    let mut candidates = BTreeSet::new();
    for i in 0..ext.results.len() {
        let (sub, _) = t.span("rewrite.result_subtree", "rewrite", |_| {
            ext.result_subtree(i)
        });
        let (max, _) = t.span("peval.max_world", "peval", |_| {
            pxv_peval::dp::max_world(&sub)
        });
        let (found, _) = t.span("tpq.embed", "tpq", |_| {
            pxv_tpq::embed::eval(&rw.compensation, &max)
        });
        candidates.extend(found.into_iter().filter_map(|e| ext.original_of(e)));
    }
    let v = &ext.view.pattern;
    let v_out_preds = v.suffix(v.mb_len());
    let mut out = Vec::new();
    for n in candidates {
        let anc = ext.results_containing(n);
        let p = if anc.len() == 1 {
            let i = anc[0];
            let (sub, _) = t.span("rewrite.result_subtree", "rewrite", |_| {
                ext.result_subtree(i)
            });
            let pinned = mark_output(&rw.compensation, n);
            let (num, _) = t.span("peval.boolean_probability", "peval", |_| {
                pxv_peval::dp::boolean_probability(&sub, &pinned)
            });
            let (den, _) = t.span("peval.boolean_probability", "peval", |_| {
                pxv_peval::dp::boolean_probability(&sub, &v_out_preds)
            });
            if den <= 0.0 {
                0.0
            } else {
                ext.results[i].prob * num / den
            }
        } else {
            t.span("rewrite.fr_tp", "rewrite", |_| fr_tp(rw, ext, n)).0
        };
        if p > 0.0 {
            out.push((n, p));
        }
    }
    out
}

/// Candidate nodes of a TP∩ plan: the intersection over its parts of the
/// nodes each part retrieves by navigation.
fn tpi_candidates(rw: &TpiRewriting, exts: &BTreeMap<usize, ProbExtension>) -> Vec<NodeId> {
    let mut all: Option<BTreeSet<NodeId>> = None;
    for part in &rw.parts {
        let ext = &exts[&part.view_index];
        let mine: BTreeSet<NodeId> = match &part.compensation {
            None => ext.results.iter().map(|r| r.orig).collect(),
            Some(c) => (0..ext.results.len())
                .flat_map(|i| {
                    let max = pxv_peval::dp::max_world(&ext.result_subtree(i));
                    pxv_tpq::embed::eval(c, &max)
                })
                .filter_map(|e| ext.original_of(e))
                .collect(),
        };
        all = Some(match all {
            None => mine,
            Some(prev) => prev.intersection(&mine).copied().collect(),
        });
    }
    all.unwrap_or_default().into_iter().collect()
}

/// Medians of each rung, outermost first, with the check that they nest.
fn check_nesting(report: &mut Report, ladder: &str, rungs: &[(&str, f64)]) {
    let line: Vec<String> = rungs.iter().map(|(n, v)| format!("{n} {v:.1}us")).collect();
    println!("ladder {ladder}: {}", line.join("  >=  "));
    for pair in rungs.windows(2) {
        let ((outer, o), (inner, i)) = (pair[0], pair[1]);
        report.check(o >= i * (1.0 - NEST_SLACK), || {
            format!("ladder {ladder}: {outer} ({o:.1}us) is faster than {inner} ({i:.1}us)")
        });
    }
}

/// Materializes every view the plan needs over `doc`.
fn extensions(
    doc: &PDocument,
    views: &[View],
    which: &BTreeSet<usize>,
) -> BTreeMap<usize, ProbExtension> {
    which
        .iter()
        .map(|&i| (i, ProbExtension::materialize(doc, &views[i])))
        .collect()
}

/// What the TP∩ rung runs on: an engine, a document in it, a query, the
/// options that select the TP∩ plan, and the wire form when the server
/// can answer the same query the same way.
struct TpiCase {
    engine: Engine,
    doc: DocId,
    query: TreePattern,
    options: QueryOptions,
    views: Vec<View>,
    wire: Option<(String, String, Nodes)>,
}

/// The TP∩ case of a workload: the catalog's own TP∩ query, or, on the
/// personnel documents, qRBON forced onto a TP∩ plan over v1BON and a
/// laptop view (with v2BON for appearance probabilities).
fn tpi_case(
    w: Workload,
    fx: &Fixture,
    docs: &[(String, PDocument)],
    table: &[Vec<Nodes>],
) -> TpiCase {
    let (views, query, options, wire) = match w {
        Workload::BudgetTpi => (
            fx.views.clone(),
            fx.queries[0].clone(),
            QueryOptions::new(),
            Some((
                docs[0].0.clone(),
                fx.queries[0].to_string(),
                table[0][0].clone(),
            )),
        ),
        _ => {
            let mut views = fixture::personnel_views();
            views.push(View::new(
                "vLAP",
                fixture::pat("IT-personnel//person/bonus[laptop]"),
            ));
            (
                views,
                fixture::pat("IT-personnel//person[name/Rick]/bonus[laptop]"),
                QueryOptions::new().plan_preference(PlanPreference::TpiOnly),
                None,
            )
        }
    };
    let mut engine = Engine::new();
    let doc = engine
        .add_document(&docs[0].0, docs[0].1.clone())
        .expect("generated documents are valid");
    engine
        .register_views(views.iter().cloned())
        .expect("unique view names");
    TpiCase {
        engine,
        doc,
        query,
        options,
        views,
        wire,
    }
}

/// Median duration (µs) of the spans named `name`.
fn med(tracer: &Tracer, name: &str) -> f64 {
    tracer.durations(name).median()
}

/// Runs `f` until `deadline`, at least `min` and at most `max` times.
fn repeat(
    min: usize,
    max: usize,
    deadline: Instant,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut n = 0;
    while n < min || (n < max && Instant::now() < deadline) {
        f()?;
        n += 1;
    }
    Ok(())
}

/// The traced run: every per-layer metric of the workload.
pub fn run(w: Workload, seed: u64, seconds: f64, tiny: bool) -> Result<Report, String> {
    let cfg = config(w, seed, tiny);
    let fx = &cfg.fixture;
    let wire = Rendered::new(fx);
    let docs = mirrors(&wire);
    let mut report = Report::new();
    let mut tracer = Tracer::new();
    let table = Oracle::new(&docs, &fx.views, &fx.queries).table();
    let err = |e: ClientError| e.to_string();
    let share = |f: f64| Duration::from_secs_f64(seconds * f);

    let server = start_server().map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let (_, requests) = setup(addr, fx, &wire).map_err(|e| format!("setup: {e}"))?;
    report.ops(requests);
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;

    // Wire: the workload's mix on one connection, in alternating untraced
    // and traced quarters, so drift over the run hits both sides alike.
    let before = c.stats().map_err(err)?;
    let (mut untraced, mut traced) = (ReadOut::default(), ReadOut::default());
    for quarter in 0..4 {
        let picker = Picker::new(&cfg.mix, fx.queries.len(), seed, quarter);
        let end = Instant::now() + share(0.1);
        let tracing = quarter % 2 == 1;
        let out = read_loop(
            addr,
            &wire,
            picker,
            Expect::Exact(&table),
            end,
            tracing.then_some(&mut tracer),
        );
        if tracing {
            traced.merge(out);
        } else {
            untraced.merge(out);
        }
    }
    let after = c.stats().map_err(err)?;
    report.ops(2);
    untraced.account(&mut report);
    traced.account(&mut report);
    check_ext_identity(
        &mut report,
        &before,
        &after,
        untraced.ext_touched + traced.ext_touched,
        "traced wire phase",
    );
    let delta = |k: &str| stat(&after, k).saturating_sub(stat(&before, k)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let queries = delta("queries");
    let plan_hits = ratio(delta("planhits"), delta("planhits") + delta("planmiss"));
    let ext_hits = ratio(delta("exthits"), delta("exthits") + delta("mats"));
    let evictions = ratio(delta("evictions") * 1e3, queries);
    let untraced_p50 = untraced.latency_ms.median();
    let traced_p50 = traced.latency_ms.median();
    untraced.merge(traced);
    let candidates = untraced.candidates.mean();

    // Wire: PING and PROFILE.
    let mut ping = Samples::new();
    for _ in 0..if tiny { 20 } else { 300 } {
        let t0 = Instant::now();
        c.ping().map_err(err)?;
        ping.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    report.ops(ping.len() as u64);
    let (mut parse, mut ser, mut overhead) = (Samples::new(), Samples::new(), Samples::new());
    let mut profile_picker = Picker::new(&cfg.mix, fx.queries.len(), seed, 1);
    let profile_end = Instant::now() + share(0.1);
    repeat(fx.queries.len() * 2, 2000, profile_end, || {
        let (d, q) = profile_picker.pick();
        let t0 = Instant::now();
        let p = c
            .profile(&wire.docs[d].0, &fx.queries[q], &QueryOptions::new())
            .map_err(err)?;
        let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
        let p = p.profile; // wire times are whole microseconds
        parse.push(p.parse_nanos as f64);
        ser.push(p.serialize_nanos as f64);
        overhead.push(rtt_us - p.total_nanos as f64);
        Ok(())
    })?;
    report.ops(parse.len() as u64);

    // In process: an unbounded warm engine over the same documents.
    let mut engine = Engine::new();
    let ids: Vec<DocId> = docs
        .iter()
        .map(|(n, d)| engine.add_document(n, d.clone()).expect("valid documents"))
        .collect();
    engine
        .register_views(fx.views.iter().cloned())
        .expect("unique view names");
    for &id in &ids {
        engine.warm(id).map_err(|e| e.to_string())?;
    }
    let (doc0_name, doc0) = (&docs[0].0, &docs[0].1);

    // Engine stages at nanosecond resolution (the wire's PROFILE rounds
    // them down to whole microseconds, which reads 0 for a probe): the
    // same stage profile, through `Engine::answer_with`, over the
    // workload's mix on a cold engine under the workload's budget, so
    // materializations are part of the sample.
    let mut cold = Engine::new();
    let cold_ids: Vec<DocId> = docs
        .iter()
        .map(|(n, d)| cold.add_document(n, d.clone()).expect("valid documents"))
        .collect();
    cold.register_views(fx.views.iter().cloned())
        .expect("unique view names");
    if let Some(share) = fx.budget_share {
        cold.set_cache_budget((engine.cache_bytes() as f64 * share) as u64);
    }
    let (mut plan, mut probe, mut eval) = (Samples::new(), Samples::new(), Samples::new());
    let mut mat = Samples::new();
    let profiled = QueryOptions::new().profile(true);
    let mut stage_picker = Picker::new(&cfg.mix, fx.queries.len(), seed, 2);
    repeat(
        fx.queries.len() * 2,
        100_000,
        Instant::now() + share(0.1),
        || {
            let (d, q) = stage_picker.pick();
            let answer = cold
                .answer_with(cold_ids[d], &fx.queries[q], &profiled)
                .map_err(|e| e.to_string())?;
            report.check(identical(&answer.nodes, &table[d][q]), || {
                "profiled in-process answer differs from the oracle".into()
            });
            let p = answer.profile.ok_or("a profiled answer has a profile")?;
            plan.push(p.plan_nanos as f64 / 1e3);
            probe.push(p.probe_nanos as f64 / 1e3);
            eval.push(p.eval_nanos as f64 / 1e3);
            if p.materialize_nanos > 0 {
                mat.push(p.materialize_nanos as f64 / 1e3);
            }
            Ok(())
        },
    )?;
    drop(cold);

    // Materialization of every view over document 0.
    let mut mat_ms = Samples::new();
    for _ in 0..if tiny { 1 } else { 3 } {
        for view in &fx.views {
            let (_, us) = tracer.root("rewrite.materialize", "rewrite", |_| {
                ProbExtension::materialize(doc0, view)
            });
            mat_ms.push(us / 1e3);
        }
    }

    // The TP ladder on document 0.
    let tp_q = &fx.queries[cfg.tp_query];
    let tp_text = &wire.queries[cfg.tp_query];
    let tp_want = &table[0][cfg.tp_query];
    let Plan::Tp(rw) = engine.plan(tp_q).map_err(|e| e.to_string())? else {
        return Err(format!("{tp_q} has no TP plan"));
    };
    let ext = ProbExtension::materialize(doc0, &fx.views[rw.view_index]);
    let fr_nodes: Vec<NodeId> = answer_tp_replica(&mut Tracer::new(), &rw, &ext)
        .iter()
        .map(|a| a.0)
        .collect();
    let ladder_end = Instant::now() + share(0.25);
    repeat(3, 10_000, ladder_end, || {
        let (got, _) = tracer.root("ladder.wire", "server", |_| {
            c.query_text(doc0_name, tp_text)
        });
        let got = got.map_err(err)?;
        let (ans, _) = tracer.root("engine.answer", "engine", |_| engine.answer(ids[0], tp_q));
        let ans = ans.map_err(|e| e.to_string())?;
        let (direct, _) = tracer.root("rewrite.answer_tp", "rewrite", |_| answer_tp(&rw, &ext));
        tracer.root("ladder.fr_sum", "rewrite", |t| {
            for &n in &fr_nodes {
                t.span("rewrite.fr_tp", "rewrite", |_| fr_tp(&rw, &ext, n));
            }
        });
        let (replica, _) = tracer.root("ladder.replica", "rewrite", |t| {
            answer_tp_replica(t, &rw, &ext)
        });
        for (what, nodes) in [
            ("wire", &got.nodes),
            ("Engine::answer", &ans.nodes),
            ("answer_tp", &direct),
            ("replica", &replica),
        ] {
            report.check(identical(nodes, tp_want), || {
                format!("TP ladder: {what} answer differs")
            });
        }
        Ok(())
    })?;
    let (wire_us, answer_us, tp_us) = (
        med(&tracer, "ladder.wire"),
        med(&tracer, "engine.answer"),
        med(&tracer, "rewrite.answer_tp"),
    );
    check_nesting(
        &mut report,
        "TP",
        &[
            ("wire", wire_us),
            ("Engine::answer", answer_us),
            ("answer_tp", tp_us),
            ("sum of fr_tp", med(&tracer, "ladder.fr_sum")),
        ],
    );
    let (self_by_layer, replicas) = tracer.self_time_by_layer("ladder.replica");
    let self_of =
        |layer: &str| self_by_layer.get(layer).copied().unwrap_or(0.0) / replicas.max(1) as f64;

    // The TP∩ ladder.
    let case = tpi_case(w, fx, &docs, &table);
    let Plan::Tpi(tpi) = case
        .engine
        .plan_with(&case.query, &case.options)
        .map_err(|e| e.to_string())?
    else {
        return Err(format!("{} has no TP∩ plan", case.query));
    };
    let referenced = Plan::Tpi(tpi.clone()).referenced_views();
    let exts = extensions(doc0, &case.views, &referenced);
    let tpi_nodes = tpi_candidates(&tpi, &exts);
    let tpi_end = Instant::now() + share(0.1);
    repeat(3, 10_000, tpi_end, || {
        if let Some((doc, text, want)) = &case.wire {
            let (got, _) = tracer.root("ladder.tpi_wire", "server", |_| c.query_text(doc, text));
            let got = got.map_err(err)?;
            report.check(identical(&got.nodes, want), || {
                "TP∩ ladder: wire answer differs".into()
            });
        }
        let (ans, _) = tracer.root("engine.answer_tpi", "engine", |_| {
            case.engine
                .answer_with(case.doc, &case.query, &case.options)
        });
        let ans = ans.map_err(|e| e.to_string())?;
        let (exec, _) = tracer.root("rewrite.execute_tpi", "rewrite", |_| {
            execute_tpi(&tpi, &|i| &exts[&i])
        });
        report.check(identical(&exec.answers, &ans.nodes), || {
            "TP∩ ladder: execute_tpi differs from Engine::answer".into()
        });
        let vviews: Vec<VirtualView> = tpi
            .fr_parts
            .iter()
            .map(|&i| {
                let part = &tpi.parts[i];
                match &part.tp_descriptor {
                    None => VirtualView::from_extension(&exts[&part.view_index]),
                    Some(d) => VirtualView::from_compensated(d, &exts[&part.view_index]),
                }
            })
            .collect();
        tracer.root("ladder.tpi_fr_sum", "rewrite", |t| {
            for &n in &tpi_nodes {
                t.span("rewrite.system_fr", "rewrite", |_| {
                    tpi.system.fr(&vviews, n)
                });
            }
        });
        Ok(())
    })?;
    let mut tpi_rungs = Vec::new();
    if case.wire.is_some() {
        tpi_rungs.push(("wire", med(&tracer, "ladder.tpi_wire")));
    }
    tpi_rungs.push(("Engine::answer", med(&tracer, "engine.answer_tpi")));
    tpi_rungs.push(("execute_tpi", med(&tracer, "rewrite.execute_tpi")));
    tpi_rungs.push(("sum of fr", med(&tracer, "ladder.tpi_fr_sum")));
    check_nesting(&mut report, "TP∩", &tpi_rungs);
    drop(case);

    // Edits: the same seeded stream through pxml, rewrite and engine.
    let mut stream = EditStream::new(doc0, fx.inert.clone(), seed ^ 0x1ADD);
    let mut mirror = doc0.clone();
    let all_views: BTreeSet<usize> = (0..fx.views.len()).collect();
    let mut maintained = extensions(doc0, &fx.views, &all_views);
    let (mut steps, mut fallbacks) = (0u64, 0u64);
    for _ in 0..if tiny { 10 } else { 150 } {
        let edit = stream.next_edit(&mirror);
        let mut next = mirror.clone();
        let (effect, _) = tracer.root("pxml.apply_edit", "pxml", |_| next.apply_edit(&edit));
        let effect = effect.map_err(|e| format!("generated edit {edit} rejected: {e}"))?;
        for ext in maintained.values_mut() {
            let ((fresh, outcome), _) = tracer.root("rewrite.apply_delta", "rewrite", |_| {
                ext.apply_delta(&next, &edit, &effect)
            });
            steps += 1;
            fallbacks += u64::from(!outcome.is_incremental());
            *ext = fresh;
        }
        let (applied, _) = tracer.root("engine.apply_edits", "engine", |_| {
            engine.apply_edits(ids[0], std::slice::from_ref(&edit))
        });
        let applied = applied.map_err(|e| e.to_string())?;
        report.check(
            applied.inserted_roots.first().copied() == effect.inserted_root,
            || {
                format!(
                    "apply_edits assigned {:?}, the mirror {:?}",
                    applied.inserted_roots, effect.inserted_root
                )
            },
        );
        mirror = next;
        stream.applied(&effect);
    }
    let mut fresh_docs = docs.clone();
    fresh_docs[0].1 = mirror;
    let mut fresh = Oracle::new(&fresh_docs, &fx.views, &fx.queries);
    let edited = engine.answer(ids[0], tp_q).map_err(|e| e.to_string())?;
    report.check(
        identical(&edited.nodes, fresh.answer(0, cfg.tp_query)),
        || "answers after Engine::apply_edits differ from a fresh engine".into(),
    );

    // Store: checkpoint, lazy restore, first answer.
    let snap = work_dir()?.join(format!("{}-{}-ladder.snap", w.name(), std::process::id()));
    let (mut save_ms, mut restore_ms, mut fault_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let (mut faulted, mut decode_us) = (Samples::new(), Samples::new());
    let mut snapshot_bytes = 0;
    for _ in 0..if tiny { 2 } else { 5 } {
        let (bytes, us) = tracer.root("store.save", "store", |_| engine.snapshot_to(&snap));
        snapshot_bytes = bytes.map_err(|e| e.to_string())?;
        save_ms.push(us / 1e3);
        let (restored, us) = tracer.root("store.restore_lazy", "store", |_| {
            Engine::restore_lazy(&snap)
        });
        let restored = restored.map_err(|e| e.to_string())?;
        restore_ms.push(us / 1e3);
        let id = restored
            .find_document(doc0_name)
            .ok_or("restored engine lost document 0")?;
        let (ans, us) = tracer.root("store.first_fault", "store", |_| restored.answer(id, tp_q));
        let ans = ans.map_err(|e| e.to_string())?;
        fault_ms.push(us / 1e3);
        report.check(identical(&ans.nodes, &edited.nodes), || {
            "answer after lazy restore differs".into()
        });
        let stats = restored.stats();
        faulted.push(stats.sections_faulted as f64);
        decode_us.push(stats.lazy_decode_ns as f64 / 1e3);
    }
    let _ = std::fs::remove_file(&snap);
    let _ = c.quit();
    server.shutdown();

    let trace_path = work_dir()?.join(format!("trace-{}-seed{seed}.json", w.name()));
    std::fs::write(&trace_path, tracer.chrome_json()).map_err(|e| format!("write trace: {e}"))?;
    println!(
        "{} spans written to {}",
        tracer.spans().len(),
        trace_path.display()
    );

    report.metric("server.ping_us", ping.median(), "us");
    report.metric("server.wire_overhead_us", overhead.median(), "us");
    report.metric("server.parse_us", parse.mean(), "us");
    report.metric("server.serialize_us", ser.mean(), "us");
    report.metric("engine.plan_us", plan.mean(), "us");
    report.metric("engine.probe_us", probe.mean(), "us");
    report.metric("engine.materialize_us", mat.mean(), "us");
    report.metric("engine.eval_us", eval.mean(), "us");
    report.metric("engine.plan_hit_ratio", plan_hits, "ratio");
    report.metric("engine.ext_hit_ratio", ext_hits, "ratio");
    report.metric("engine.evictions_per_kq", evictions, "count");
    report.metric("engine.answer_us", answer_us, "us");
    report.metric(
        "engine.apply_edits_us",
        med(&tracer, "engine.apply_edits"),
        "us",
    );
    report.metric("rewrite.answer_tp_us", tp_us, "us");
    report.metric("rewrite.fr_tp_us", med(&tracer, "rewrite.fr_tp"), "us");
    report.metric("rewrite.candidates_per_query", candidates, "count");
    report.metric(
        "rewrite.result_subtree_us",
        med(&tracer, "rewrite.result_subtree"),
        "us",
    );
    report.metric(
        "rewrite.execute_tpi_us",
        med(&tracer, "rewrite.execute_tpi"),
        "us",
    );
    report.metric("rewrite.materialize_ms", mat_ms.median(), "ms");
    report.metric(
        "rewrite.apply_delta_us",
        med(&tracer, "rewrite.apply_delta"),
        "us",
    );
    report.metric(
        "rewrite.delta_fallback_ratio",
        ratio(fallbacks as f64, steps as f64),
        "ratio",
    );
    report.metric(
        "peval.boolean_probability_us",
        med(&tracer, "peval.boolean_probability"),
        "us",
    );
    report.metric("peval.max_world_us", med(&tracer, "peval.max_world"), "us");
    report.metric("tpq.embed_us", med(&tracer, "tpq.embed"), "us");
    report.metric("pxml.apply_edit_us", med(&tracer, "pxml.apply_edit"), "us");
    report.metric("store.save_ms", save_ms.median(), "ms");
    report.metric("store.restore_lazy_ms", restore_ms.median(), "ms");
    report.metric("store.first_fault_ms", fault_ms.median(), "ms");
    report.metric("store.sections_faulted", faulted.mean(), "count");
    report.metric("store.lazy_decode_us", decode_us.median(), "us");
    report.metric("store.snapshot_bytes", snapshot_bytes as f64, "bytes");
    report.metric("self.server_us", wire_us - answer_us, "us");
    report.metric("self.engine_us", answer_us - tp_us, "us");
    report.metric("self.rewrite_us", self_of("rewrite"), "us");
    report.metric("self.peval_us", self_of("peval"), "us");
    report.metric("self.tpq_us", self_of("tpq"), "us");
    report.metric("trace.untraced_query_p50_ms", untraced_p50, "ms");
    report.metric("trace.traced_query_p50_ms", traced_p50, "ms");
    report.metric(
        "trace.overhead_ratio",
        ratio(traced_p50, untraced_p50),
        "ratio",
    );
    Ok(report)
}
