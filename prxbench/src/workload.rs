//! The three workloads and the untraced run that measures the end-to-end
//! metrics on them.

use crate::fixture::{self, EditStream, Fixture, Zipf};
use crate::oracle::{Nodes, Oracle};
use crate::report::Report;
use crate::stats::Samples;
use crate::wire::{
    check_ext_identity, read_loop, restart_cycles, saved_bytes, setup, start_server, stat,
    verify_all, write_loop, Expect, Mix, Picker, ReadOut, Rendered, Stop, WriteOut,
};
use pxv_pxml::text::parse_pdocument;
use pxv_pxml::PDocument;
use pxv_server::client::{Client, ClientError};
use pxv_server::serve::ServerHandle;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Eval-bound TP reads over a warm cache that fits.
    WarmEval,
    /// TP∩ reads over many documents under a cache budget.
    BudgetTpi,
    /// Reads beside a stream of updates and checkpoints, then restarts.
    EditCheckpoint,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WarmEval,
        Workload::BudgetTpi,
        Workload::EditCheckpoint,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmEval => "warm-eval",
            Workload::BudgetTpi => "budget-tpi",
            Workload::EditCheckpoint => "edit-checkpoint",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything that shapes one workload's run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Documents, views, queries.
    pub fixture: Fixture,
    /// How the reader picks requests.
    pub mix: Mix,
    /// Whether a writer runs beside the reader in the timed phase.
    pub storm: bool,
    /// A `SAVE` after every this many updates.
    pub save_every: usize,
    /// Quiescent updates after the read windows, over all rounds (when
    /// there is no storm).
    pub epilogue_updates: usize,
    /// Rounds the run is split into.
    pub rounds: usize,
    /// Timed `RESTORE` + first `QUERY` cycles per round.
    pub restarts_per_round: usize,
    /// The query of the mix the layer ladder follows on its TP path.
    pub tp_query: usize,
}

/// The configuration of `w` for `seed`; `tiny` shrinks every size so the
/// benchmark's own tests run in seconds.
pub fn config(w: Workload, seed: u64, tiny: bool) -> Config {
    let pick = |full: usize, small: usize| if tiny { small } else { full };
    match w {
        Workload::WarmEval => Config {
            fixture: Fixture {
                docs: vec![("hr".into(), fixture::personnel_doc(pick(800, 30), seed))],
                views: fixture::personnel_views(),
                queries: fixture::personnel_queries(),
                inert: fixture::personnel_inert(),
                budget_share: None,
            },
            mix: Mix::Cycle,
            storm: false,
            save_every: pick(25, 5),
            epilogue_updates: pick(1000, 20),
            rounds: pick(20, 1),
            restarts_per_round: pick(3, 2),
            tp_query: 0,
        },
        Workload::BudgetTpi => {
            let n_docs = pick(16, 4);
            Config {
                fixture: Fixture {
                    docs: (0..n_docs)
                        .map(|i| {
                            let doc_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
                            (
                                format!("cat{i:02}"),
                                fixture::catalog_doc(pick(150, 12), doc_seed),
                            )
                        })
                        .collect(),
                    views: fixture::catalog_views(),
                    queries: fixture::catalog_queries(),
                    inert: fixture::catalog_inert(),
                    budget_share: Some(0.5),
                },
                mix: Mix::Skewed {
                    zipf: Zipf::new(n_docs, 1.0),
                    first: 0.85,
                },
                storm: false,
                save_every: pick(20, 5),
                epilogue_updates: pick(1000, 20),
                rounds: pick(20, 1),
                restarts_per_round: pick(3, 2),
                tp_query: 1,
            }
        }
        Workload::EditCheckpoint => Config {
            fixture: Fixture {
                docs: vec![("hr".into(), fixture::personnel_doc(pick(200, 20), seed))],
                views: fixture::personnel_views(),
                queries: fixture::personnel_queries(),
                inert: fixture::personnel_inert(),
                budget_share: None,
            },
            mix: Mix::Cycle,
            storm: true,
            save_every: pick(16, 4),
            epilogue_updates: 0,
            rounds: pick(20, 1),
            restarts_per_round: pick(3, 2),
            tp_query: 0,
        },
    }
}

/// Where runs keep snapshots and traces: a directory in the current one.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".prxbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The client's mirror of every document: parsed back from the very text
/// the server loads, so both sides start from identical documents.
pub fn mirrors(wire: &Rendered) -> Vec<(String, PDocument)> {
    wire.docs
        .iter()
        .map(|(name, text)| {
            let doc = parse_pdocument(text).expect("rendered documents parse back");
            (name.clone(), doc)
        })
        .collect()
}

/// Sum of `heap_bytes` over documents.
pub fn heap_bytes(docs: &[(String, PDocument)]) -> f64 {
    docs.iter().map(|(_, d)| d.heap_bytes() as f64).sum()
}

/// Starts a fresh server and sets it up over the wire; returns it with
/// the set-up time.
fn fresh_server(
    cfg: &Config,
    wire: &Rendered,
    report: &mut Report,
) -> Result<(ServerHandle, f64), String> {
    let handle = start_server().map_err(|e| format!("start server: {e}"))?;
    let (secs, requests) =
        setup(handle.addr(), &cfg.fixture, wire).map_err(|e| format!("setup: {e}"))?;
    report.ops(requests);
    Ok((handle, secs))
}

/// Replaces row 0 of the oracle table (the only document edits touch)
/// with the answers of a fresh engine over the mirrored document.
fn refresh_doc0(table: &mut [Vec<Nodes>], docs: &[(String, PDocument)], fx: &Fixture) {
    let mut fresh = Oracle::new(&docs[..1], &fx.views, &fx.queries);
    table[0] = (0..fx.queries.len())
        .map(|q| fresh.answer(0, q).clone())
        .collect();
}

/// The untraced run: every end-to-end metric of the workload.
///
/// The run is split into rounds. Each round sets up a side server (for
/// `setup_s`), reads for its share of `seconds` (with the writer beside
/// the reader on a storm workload), checks every answer, applies its
/// share of the quiescent updates (without a storm), checkpoints, and
/// restarts from the checkpoint. Short measurements are thus spread over
/// twenty moments of the run: the host's speed changes from one to the
/// next, and the quantiles need many of them.
pub fn run(w: Workload, seed: u64, seconds: f64, tiny: bool) -> Result<Report, String> {
    let cfg = config(w, seed, tiny);
    let fx = &cfg.fixture;
    let wire = Rendered::new(fx);
    let mut docs = mirrors(&wire);
    let mut report = Report::new();
    let mut table = Oracle::new(&docs, &fx.views, &fx.queries).table();
    let snap = work_dir()?.join(format!("{}-{}.snap", w.name(), std::process::id()));
    let snap_path = snap.to_str().ok_or("non-UTF-8 snapshot path")?.to_string();
    let err = |e: ClientError| e.to_string();

    let mut setup_s = Samples::new();
    let (server, secs) = fresh_server(&cfg, &wire, &mut report)?;
    setup_s.push(secs);
    let addr = server.addr();
    let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut stream = EditStream::new(&docs[0].1, fx.inert.clone(), seed);
    let mut reads = ReadOut::default();
    let (mut updates, mut checkpoints, mut restarts) =
        (Samples::new(), Samples::new(), Samples::new());
    let (mut space, mut snapshot_ratio) = (Samples::new(), 0.0);
    let window = Duration::from_secs_f64(seconds / cfg.rounds as f64);
    for round in 0..cfg.rounds {
        let (side, secs) = fresh_server(&cfg, &wire, &mut report)?;
        side.shutdown();
        setup_s.push(secs);

        // The read window: one closed-loop reader, and the writer on this
        // thread when the workload has a storm.
        let before = admin.stats().map_err(err)?;
        let mut writes = WriteOut::default();
        let deadline = Instant::now() + window;
        let round_reads = std::thread::scope(|s| {
            let picker = Picker::new(&cfg.mix, fx.queries.len(), seed, round);
            let expect = if cfg.storm {
                Expect::Support(&table)
            } else {
                Expect::Exact(&table)
            };
            let wire = &wire;
            let reader = s.spawn(move || read_loop(addr, wire, picker, expect, deadline, None));
            if cfg.storm {
                let (name, mirror) = &mut docs[0];
                writes = write_loop(
                    &mut admin,
                    name,
                    mirror,
                    &mut stream,
                    Stop::Deadline(deadline),
                    cfg.save_every,
                    &snap_path,
                );
            }
            reader.join().expect("the reader thread does not panic")
        });
        let after = admin.stats().map_err(err)?;
        report.ops(2);
        round_reads.account(&mut report);
        if !cfg.storm {
            check_ext_identity(
                &mut report,
                &before,
                &after,
                round_reads.ext_touched,
                "read window",
            );
        }
        reads.merge(round_reads);
        space.push(stat(&after, "cache_bytes") as f64 / heap_bytes(&docs));

        // After a storm, a quiescent check (its reads were only checked for
        // support); without one, this round's updates (the reads were
        // checked bit for bit, and the updated state is checked after the
        // restarts below).
        if cfg.storm {
            refresh_doc0(&mut table, &docs, fx);
            verify_all(&mut admin, &wire, &table, &mut report, "after the storm").map_err(err)?;
        } else {
            let (name, mirror) = &mut docs[0];
            writes = write_loop(
                &mut admin,
                name,
                mirror,
                &mut stream,
                Stop::Count(cfg.epilogue_updates / cfg.rounds),
                cfg.save_every,
                &snap_path,
            );
            refresh_doc0(&mut table, &docs, fx);
        }
        writes.account(&mut report);
        updates.extend(&writes.update_ms);
        checkpoints.extend(&writes.save_ms);

        // A checkpoint, then restarts from it.
        let t_save = Instant::now();
        let tail = admin.save(&snap_path).map_err(err)?;
        checkpoints.push(t_save.elapsed().as_secs_f64() * 1e3);
        report.ops(1);
        let bytes = saved_bytes(&tail).ok_or(format!("SAVE without bytes=: {tail}"))?;
        snapshot_ratio = bytes as f64 / heap_bytes(&docs);
        let times = restart_cycles(
            &mut admin,
            &wire,
            &snap_path,
            cfg.restarts_per_round,
            &table[0][0],
            &mut report,
        )
        .map_err(err)?;
        restarts.extend(&times);
        verify_all(&mut admin, &wire, &table, &mut report, "after the restarts").map_err(err)?;
    }
    let _ = admin.quit();
    server.shutdown();
    let _ = std::fs::remove_file(&snap);

    for (name, samples) in [
        ("query_p99_ms", &reads.latency_ms),
        ("update_p99_ms", &updates),
    ] {
        if samples.beyond(0.99) < 10 && !tiny {
            println!(
                "WARNING: {name} has only {} samples beyond it",
                samples.beyond(0.99)
            );
        }
    }
    report.shape("query_ms", &reads.latency_ms);
    report.shape("update_ms", &updates);
    // Neighbours on a shared host slow it by up to 1.6x for seconds at a
    // time, often half of a run; a median then sits on the edge between
    // the quiet and the contended mode and jumps from run to run. Typical
    // timings are therefore the 25th percentile (and throughput the 75th
    // of its one-second samples), which stays in the quiet mode unless the
    // host is contended for most of the run; the tails are the 99th.
    report.quantile("query_p25_ms", &reads.latency_ms, 0.25, "ms");
    report.quantile("query_p99_ms", &reads.latency_ms, 0.99, "ms");
    report.quantile("query_qps", &reads.chunk_qps, 0.75, "1/s");
    report.quantile("update_p25_ms", &updates, 0.25, "ms");
    report.quantile("update_p99_ms", &updates, 0.99, "ms");
    report.quantile("checkpoint_p25_ms", &checkpoints, 0.25, "ms");
    report.quantile("restart_p25_ms", &restarts, 0.25, "ms");
    report.quantile("setup_s", &setup_s, 0.5, "s");
    report.metric("space_ratio", space.median(), "ratio");
    report.metric("snapshot_ratio", snapshot_ratio, "ratio");
    Ok(report)
}
