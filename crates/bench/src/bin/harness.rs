//! The experiment harness: regenerates every figure/example of the paper
//! (E1–E12) and prints paper-value vs. measured-value tables. It exits 0
//! only when every value matches. Performance is measured by prxbench
//! (`BENCHMARK.json`), not here.
//!
//! ```sh
//! cargo run --release -p pxv-bench --bin harness          # all of E1–E12
//! cargo run --release -p pxv-bench --bin harness e6 e7    # a subset
//! cargo run --release -p pxv-bench --bin harness trace-check trace.json
//! ```

use pxv_bench::*;
use pxv_pxml::examples_paper::*;
use pxv_pxml::NodeId;
use pxv_rewrite::view::ProbExtension;
use pxv_rewrite::View;

struct Table {
    title: String,
    rows: Vec<(String, String, String, bool)>,
}

impl Table {
    fn new(title: impl Into<String>) -> Table {
        Table {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    fn row_num(&mut self, what: &str, paper: f64, measured: f64) {
        let ok = (paper - measured).abs() < 1e-9;
        self.rows.push((
            what.to_string(),
            format!("{paper:.6}"),
            format!("{measured:.6}"),
            ok,
        ));
    }

    fn row_str(&mut self, what: &str, paper: &str, measured: &str) {
        let ok = paper == measured;
        self.rows.push((
            what.to_string(),
            paper.to_string(),
            measured.to_string(),
            ok,
        ));
    }

    fn print(&self) -> bool {
        println!("\n== {} ==", self.title);
        println!("{:<52} {:>14} {:>14}  ok", "quantity", "paper", "measured");
        let mut all_ok = true;
        for (what, paper, measured, ok) in &self.rows {
            println!(
                "{:<52} {:>14} {:>14}  {}",
                what,
                paper,
                measured,
                if *ok { "✓" } else { "✗" }
            );
            all_ok &= ok;
        }
        all_ok
    }
}

fn e1() -> bool {
    let mut t = Table::new("E1 — Figures 1–2, Example 3: P̂PER semantics");
    let d = fig1_dper();
    let pper = fig2_pper();
    let space = pper.px_space();
    t.row_num(
        "Pr(dPER) (Example 3)",
        0.4725,
        space.probability_where(|w| w.id_set_key() == d.id_set_key()),
    );
    t.row_num("Σ Pr over ⟦P̂PER⟧", 1.0, space.total_probability());
    t.row_str("distinct worlds", "8", &space.len().to_string());
    t.print()
}

fn e2() -> bool {
    let mut t = Table::new("E2 — Figure 3, Examples 4–5: answers over dPER");
    let d = fig1_dper();
    let show = |q: &pxv_tpq::TreePattern| -> String {
        let v = pxv_tpq::embed::eval(q, &d);
        v.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    t.row_str("qRBON(dPER)", "n5", &show(&qrbon()));
    t.row_str("qBON(dPER)", "n5", &show(&qbon()));
    t.row_str("v1BON(dPER)", "n5", &show(&v1bon().pattern));
    t.row_str("v2BON(dPER)", "n5,n7", &show(&v2bon().pattern));
    t.print()
}

fn e3() -> bool {
    let mut t = Table::new("E3 — Example 6: probabilistic answers over P̂PER");
    let pper = fig2_pper();
    let n5 = NodeId(5);
    t.row_num(
        "Pr(n5 ∈ qBON)",
        0.9,
        pxv_peval::eval_tp_at(&pper, &qbon(), n5),
    );
    t.row_num(
        "Pr(n5 ∈ v1BON)",
        0.75,
        pxv_peval::eval_tp_at(&pper, &v1bon().pattern, n5),
    );
    t.row_num(
        "Pr(n5 ∈ qRBON)",
        0.675,
        pxv_peval::eval_tp_at(&pper, &qrbon(), n5),
    );
    let v2 = pxv_peval::eval_tp(&pper, &v2bon().pattern);
    t.row_str(
        "v2BON(P̂PER)",
        "(n5,1) (n7,1)",
        &v2.iter()
            .map(|(n, p)| format!("({n},{p:.0})"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    t.print()
}

fn e4() -> bool {
    let mut t = Table::new("E4 — Figure 4, Examples 7–8: view extensions");
    let pper = fig2_pper();
    let ext1 = ProbExtension::materialize(&pper, &v1bon());
    t.row_str(
        "|results of (P̂PER)_v1BON|",
        "1",
        &ext1.results.len().to_string(),
    );
    t.row_num("β of n5 in (P̂PER)_v1BON", 0.75, ext1.results[0].prob);
    let ext2 = ProbExtension::materialize(&pper, &v2bon());
    t.row_str(
        "|results of (P̂PER)_v2BON|",
        "2",
        &ext2.results.len().to_string(),
    );
    t.row_num("β of n5 in (P̂PER)_v2BON", 1.0, ext2.results[0].prob);
    t.row_num("β of n7 in (P̂PER)_v2BON", 1.0, ext2.results[1].prob);
    t.print()
}

fn e5() -> bool {
    let mut t = Table::new("E5 — Examples 9–10: prefixes, suffixes, tokens");
    let q = qrbon();
    t.row_str(
        "tokens of qRBON",
        "t1=[1,1] t2=[2,3]",
        &q.token_ranges()
            .iter()
            .enumerate()
            .map(|(i, (a, b))| format!("t{}=[{a},{b}]", i + 1))
            .collect::<Vec<_>>()
            .join(" "),
    );
    t.row_str(
        "suffix q_(2)",
        "person[name/Rick]/bonus[laptop]",
        &q.suffix(2).to_string(),
    );
    t.row_str(
        "q′ (k = 3)",
        "IT-personnel//person[name/Rick]/bonus",
        &q.prefix(3).strip_output_predicates().to_string(),
    );
    t.row_str(
        "q″ (k = 3)",
        "IT-personnel//person/bonus[laptop]",
        &q.prefix(3).only_output_predicates().to_string(),
    );
    t.print()
}

fn e6() -> bool {
    let mut t = Table::new("E6 — Example 11 / Fig. 5 left: no fr despite qr");
    let q = pat("a/b[c]");
    let v = View::new("v", pat("a[.//c]/b"));
    let unf = pxv_tpq::comp(&v.pattern, &q.suffix(2));
    t.row_str(
        "deterministic rewriting exists (Fact 1)",
        "yes",
        if pxv_tpq::equivalent(&unf, &q) {
            "yes"
        } else {
            "no"
        },
    );
    t.row_num(
        "Pr(b ∈ q(P1))",
        0.325,
        pxv_peval::eval_tp_at(&fig5_p1(), &q, fig5_p1_b()),
    );
    t.row_num(
        "Pr(b ∈ q(P2))",
        0.5,
        pxv_peval::eval_tp_at(&fig5_p2(), &q, fig5_p2_b()),
    );
    let e1 = ProbExtension::materialize(&fig5_p1(), &v);
    let e2 = ProbExtension::materialize(&fig5_p2(), &v);
    t.row_num("β of b in (P̂1)_v", 0.65, e1.results[0].prob);
    t.row_num("β of b in (P̂2)_v", 0.65, e2.results[0].prob);
    t.row_str(
        "v′ ⊥ q″",
        "no",
        if pxv_rewrite::c_independent(
            &v.pattern.strip_output_predicates(),
            &q.prefix(2).only_output_predicates(),
        ) {
            "yes"
        } else {
            "no"
        },
    );
    t.row_str(
        "TPrewrite accepts",
        "no",
        if pxv_rewrite::tp_rewrite(&q, &[v]).is_empty() {
            "no"
        } else {
            "yes"
        },
    );
    t.print()
}

fn e7() -> bool {
    let mut t = Table::new("E7 — Example 12 / Fig. 5 right: prefix-suffix obstruction");
    let q = pat("a//b[e]/c/b/c//d");
    let v = View::new("v", pat("a//b[e]/c/b/c"));
    let (nc1, nc2, nd) = fig5_chain_nodes();
    t.row_num(
        "Pr(nd ∈ q(P3))",
        0.288,
        pxv_peval::eval_tp_at(&fig5_p3(), &q, nd),
    );
    t.row_num(
        "Pr(nd ∈ q(P4))",
        0.264,
        pxv_peval::eval_tp_at(&fig5_p4(), &q, nd),
    );
    for (name, pdoc) in [("P3", fig5_p3()), ("P4", fig5_p4())] {
        t.row_num(
            &format!("Pr(nc1 ∈ v({name}))"),
            0.12,
            pxv_peval::eval_tp_at(&pdoc, &v.pattern, nc1),
        );
        t.row_num(
            &format!("Pr(nc2 ∈ v({name}))"),
            0.24,
            pxv_peval::eval_tp_at(&pdoc, &v.pattern, nc2),
        );
    }
    let token = v.pattern.last_token();
    let u = pxv_tpq::pattern::max_prefix_suffix(&token.mb_labels(1, token.mb_len()));
    t.row_str("u (max prefix-suffix of last token)", "2", &u.to_string());
    t.row_str(
        "TPrewrite accepts",
        "no",
        if pxv_rewrite::tp_rewrite(&q, &[v]).is_empty() {
            "no"
        } else {
            "yes"
        },
    );
    t.print()
}

fn e8() -> bool {
    let mut t = Table::new("E8 — Example 13 / Theorem 1: restricted fr");
    let pper = fig2_pper();
    let views = [v2bon()];
    let rs = pxv_rewrite::tp_rewrite(&qbon(), &views);
    t.row_str(
        "plan found & restricted",
        "yes",
        if rs[0].restricted { "yes" } else { "no" },
    );
    let ext = ProbExtension::materialize(&pper, &views[0]);
    t.row_num(
        "fr(n5) = Pr(n5 ∈ qr(Pv)) ÷ Pr(n5 ∈ v(3)(P^n5_v))",
        0.9,
        pxv_rewrite::fr_tp::fr_tp(&rs[0], &ext, NodeId(5)),
    );
    t.row_num(
        "fr(n7)",
        0.0,
        pxv_rewrite::fr_tp::fr_tp(&rs[0], &ext, NodeId(7)),
    );
    t.print()
}

fn e9() -> bool {
    let mut t = Table::new("E9 — Theorem 2 accept/reject matrix");
    use pxv_rewrite::tp_rewrite::{try_view, TpReject};
    let cases: Vec<(&str, &str, &str)> = vec![
        ("a//b[e]/c/b/c//d", "a//b[e]/c/b/c", "reject:prefix-suffix"),
        ("a//b/c/b/c[e]//d", "a//b/c/b/c[e]", "accept(u=2)"),
        ("a//b[e]/c//d", "a//b[e]/c", "accept(u=0)"),
        ("a/b[c]", "a[.//c]/b", "reject:c-dependence"),
        (
            "IT-personnel//person/bonus[laptop]",
            "IT-personnel//person/bonus",
            "accept(restricted)",
        ),
    ];
    for (qs, vs, expected) in cases {
        let q = pat(qs);
        let views = [View::new("v", pat(vs))];
        let got = match try_view(&q, &views, 0) {
            Ok(rw) if rw.restricted => "accept(restricted)".to_string(),
            Ok(rw) => format!("accept(u={})", rw.u),
            Err(TpReject::PrefixSuffixPredicates) => "reject:prefix-suffix".to_string(),
            Err(TpReject::NotCIndependent) => "reject:c-dependence".to_string(),
            Err(e) => format!("reject:{e:?}"),
        };
        t.row_str(&format!("q={qs} v={vs}"), expected, &got);
    }
    t.print()
}

fn e10() -> bool {
    let mut t = Table::new("E10 — Example 15 / Theorem 3: product fr");
    let pper = fig2_pper();
    let views = vec![v1bon(), v2bon()];
    let rw = pxv_rewrite::tpi_rewrite(&qrbon(), &views, 5_000).expect("plan");
    let exts: Vec<ProbExtension> = views
        .iter()
        .map(|v| ProbExtension::materialize(&pper, v))
        .collect();
    let ans = pxv_rewrite::answer::answer_tpi(&rw, &exts);
    t.row_str(
        "answers",
        "n5",
        &ans.iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    t.row_num("fr(n5) = 0.75 × 0.9 ÷ 1", 0.675, ans[0].1);
    t.print()
}

fn e11() -> bool {
    let mut t = Table::new("E11 — Example 16 / Theorem 5: the S(q,V) system");
    let q = pat("a[1]/b[2]/c[3]/d");
    let views = vec![
        pat("a[1]/b/c[3]/d"),
        pat("a/b[2]/c[3]/d"),
        pat("a[1]/b[2]/c/d"),
        pat("a//d"),
    ];
    let sys = pxv_rewrite::system::build_system(&q, &views);
    t.row_str(
        "S(q,V) solvable",
        "yes",
        if sys.is_solvable() { "yes" } else { "no" },
    );
    t.row_str(
        "coefficients (v1..v4)",
        "1/2 1/2 1/2 -1/2",
        &sys.coefficients
            .clone()
            .map(|c| {
                c.iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default(),
    );
    let sys3 = pxv_rewrite::system::build_system(&q, &views[..3]);
    t.row_str(
        "solvable without v4 (appearance)",
        "no",
        if sys3.is_solvable() { "yes" } else { "no" },
    );
    t.row_str(
        "# d-view variables (Pr(1), Pr(2), Pr(3))",
        "3",
        &sys.decomposition.dviews.len().to_string(),
    );
    t.print()
}

fn e12() -> bool {
    let mut t = Table::new("E12 — Theorem 4: matching ⇔ c-independent rewriting");
    use pxv_rewrite::hardness::*;
    let cases: Vec<(usize, Vec<Vec<usize>>)> = vec![
        (4, vec![vec![1, 2], vec![3, 4]]),
        (4, vec![vec![1, 2], vec![2, 3]]),
        (6, vec![vec![1, 2, 3], vec![4, 5, 6], vec![2, 3, 4]]),
        (6, vec![vec![1, 2, 3], vec![3, 4, 5], vec![5, 6, 1]]),
    ];
    for (s, edges) in cases {
        let direct = matching_direct(s, &edges);
        let via = matching_via_rewriting(s, &edges);
        t.row_str(
            &format!("s={s} E={edges:?}"),
            if direct { "matching" } else { "none" },
            if via { "matching" } else { "none" },
        );
    }
    t.print()
}

type Experiment = (&'static str, fn() -> bool);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `harness trace-check <file>` validates a Chrome trace dump and
    // exits — the CI trace-smoke job's JSON checker, sharing the exact
    // parser the obs tests assert against.
    if args.first().map(String::as_str) == Some("trace-check") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: harness trace-check <trace.json>");
            std::process::exit(2);
        };
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("trace-check: cannot read {path}: {e}");
            std::process::exit(1);
        });
        match prxview::obs::export::check_chrome_trace(&json) {
            Ok(events) => {
                println!("trace-check: {path}: {events} events ok");
                return;
            }
            Err(e) => {
                eprintln!("trace-check: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let want = |k: &str| args.is_empty() || args.iter().any(|a| a == k);
    let mut all_ok = true;
    let experiments: Vec<Experiment> = vec![
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
    ];
    for (k, f) in experiments {
        if want(k) {
            all_ok &= f();
        }
    }
    println!(
        "\n{}",
        if all_ok {
            "ALL PAPER VALUES REPRODUCED ✓"
        } else {
            "SOME VALUES DIVERGED ✗"
        }
    );
    if !all_ok {
        std::process::exit(1);
    }
}
