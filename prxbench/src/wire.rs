//! The wire side: an in-process `prxd` on loopback, brought to ready over
//! the wire and driven by closed-loop client connections. Every answer is
//! checked as it arrives.

use crate::fixture::{EditStream, Fixture, Rng, Zipf};
use crate::oracle::{identical, same_support, Nodes};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;
use pxv_engine::Engine;
use pxv_pxml::PDocument;
use pxv_server::client::{Client, ClientError};
use pxv_server::serve::{serve, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Client connections and server workers never exceed the host's cores.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Starts an empty server on an ephemeral loopback port.
pub fn start_server() -> std::io::Result<ServerHandle> {
    serve(
        Engine::new(),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: cores(),
            ..ServerConfig::default()
        },
    )
}

/// The fixture as wire text, rendered once before anything is timed.
#[derive(Clone, Debug)]
pub struct Rendered {
    /// `(name, p-document text)`.
    pub docs: Vec<(String, String)>,
    /// `(name, pattern text)`.
    pub views: Vec<(String, String)>,
    /// Query texts of the read mix.
    pub queries: Vec<String>,
}

impl Rendered {
    /// Renders `fx` through the round-tripping display forms.
    pub fn new(fx: &Fixture) -> Rendered {
        Rendered {
            docs: fx
                .docs
                .iter()
                .map(|(n, d)| (n.clone(), d.to_string()))
                .collect(),
            views: fx
                .views
                .iter()
                .map(|v| (v.name.clone(), v.pattern.to_string()))
                .collect(),
            queries: fx.queries.iter().map(|q| q.to_string()).collect(),
        }
    }
}

/// Brings an empty server to ready over the wire (`LOAD`, `VIEW`, `WARM`,
/// and, when the fixture has a budget, priming queries on the popular
/// half of the documents and `BUDGET`). Returns the seconds it took and the number of
/// requests sent.
pub fn setup(addr: SocketAddr, fx: &Fixture, wire: &Rendered) -> Result<(f64, u64), ClientError> {
    let t0 = Instant::now();
    let mut c = Client::connect(addr)?;
    let mut requests = 0;
    for (name, text) in &wire.docs {
        c.load_text(name, text)?;
        requests += 1;
    }
    for (name, text) in &wire.views {
        c.view_text(name, text)?;
        requests += 1;
    }
    for (name, _) in &wire.docs {
        c.warm(name)?;
        requests += 1;
    }
    if let Some(share) = fx.budget_share {
        // Give the popular half of the documents (Zipf ranks come first)
        // hits before the cut, more the more popular, so the budget keeps
        // that half resident, and trims its least popular end if it does
        // not fit, instead of an arbitrary mix of views.
        let hot = wire.docs.len().div_ceil(2);
        for (rank, (name, _)) in wire.docs.iter().take(hot).enumerate() {
            for _ in 0..2 * (hot - rank) {
                for text in &wire.queries {
                    c.query_text(name, text)?;
                    requests += 1;
                }
            }
        }
        let full = stat(&c.stats()?, "cache_bytes");
        c.budget((full as f64 * share) as u64)?;
        requests += 2;
    }
    let secs = t0.elapsed().as_secs_f64();
    c.quit()?;
    Ok((secs, requests + 1))
}

/// One `STATS` value (0 when absent).
pub fn stat(stats: &HashMap<String, u64>, key: &str) -> u64 {
    stats.get(key).copied().unwrap_or(0)
}

/// `exthits + mats`: the extension reads the server has counted.
pub fn ext_reads(stats: &HashMap<String, u64>) -> u64 {
    stat(stats, "exthits") + stat(stats, "mats")
}

/// How a connection chooses its next `(document, query)`.
#[derive(Clone, Debug)]
pub enum Mix {
    /// Every query in turn on document 0, each connection starting at its
    /// own offset.
    Cycle,
    /// A Zipf-skewed document; the first query with probability `first`,
    /// otherwise one of the others uniformly.
    Skewed {
        /// Document popularity.
        zipf: Zipf,
        /// Share of the first query in the mix.
        first: f64,
    },
}

/// A connection's seeded stream of `(document, query)` picks.
#[derive(Clone, Debug)]
pub struct Picker {
    mix: Mix,
    rng: Rng,
    next: usize,
    queries: usize,
}

impl Picker {
    /// The picker of connection `conn`.
    pub fn new(mix: &Mix, queries: usize, seed: u64, conn: usize) -> Picker {
        Picker {
            mix: mix.clone(),
            rng: Rng::new(seed, 0x9E3D + conn as u64),
            next: conn,
            queries,
        }
    }

    /// The next pick.
    pub fn pick(&mut self) -> (usize, usize) {
        match &self.mix {
            Mix::Cycle => {
                self.next += 1;
                (0, (self.next - 1) % self.queries)
            }
            Mix::Skewed { zipf, first } => {
                let d = zipf.sample(&mut self.rng);
                let q = if self.queries == 1 || self.rng.unit() < *first {
                    0
                } else {
                    1 + self.rng.below(self.queries - 1)
                };
                (d, q)
            }
        }
    }
}

/// How read answers are checked.
#[derive(Clone, Copy, Debug)]
pub enum Expect<'a> {
    /// Bit-identical to the oracle table `[document][query]`.
    Exact(&'a [Vec<Nodes>]),
    /// Same nodes as the table, probabilities in `(0, 1]` (reads racing
    /// support-preserving edits).
    Support(&'a [Vec<Nodes>]),
}

impl Expect<'_> {
    fn holds(&self, d: usize, q: usize, got: &Nodes) -> bool {
        match self {
            Expect::Exact(t) => identical(got, &t[d][q]),
            Expect::Support(t) => same_support(got, &t[d][q]),
        }
    }
}

/// Read time over which one throughput sample is taken.
const QPS_CHUNK: std::time::Duration = std::time::Duration::from_secs(1);

/// What one reader connection saw.
#[derive(Debug, Default)]
pub struct ReadOut {
    /// Round trip of every successful, correct query (ms).
    pub latency_ms: Samples,
    /// Correct answers per second over each [`QPS_CHUNK`] of read time (a
    /// window's tail is sampled when it is at least half a chunk, or when
    /// the whole window is shorter than one).
    pub chunk_qps: Samples,
    /// Candidates reported per answer (`cands=`).
    pub candidates: Samples,
    /// Queries sent.
    pub attempted: u64,
    /// Failed, refused or wrong queries, described.
    pub failures: Vec<String>,
    /// Sum of `ext=` over the answers.
    pub ext_touched: u64,
}

impl ReadOut {
    /// Folds another connection's outcome into this one.
    pub fn merge(&mut self, other: ReadOut) {
        self.latency_ms.extend(&other.latency_ms);
        self.chunk_qps.extend(&other.chunk_qps);
        self.candidates.extend(&other.candidates);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.ext_touched += other.ext_touched;
    }

    /// Moves the ledger into `report`.
    pub fn account(&self, report: &mut Report) {
        report.ops(self.attempted);
        for f in &self.failures {
            report.fail(f.clone());
        }
    }
}

/// A closed-loop reader: sends its next query only after the previous
/// answer arrived, until `deadline`. With a tracer, each round trip is
/// recorded as a `wire.query` span.
pub fn read_loop(
    addr: SocketAddr,
    wire: &Rendered,
    mut picker: Picker,
    expect: Expect<'_>,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> ReadOut {
    let mut out = ReadOut::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.failures.push(format!("reader connect: {e}"));
            return out;
        }
    };
    let (mut chunk_start, mut chunk_answers) = (Instant::now(), 0u32);
    while Instant::now() < deadline {
        let since = chunk_start.elapsed();
        if since >= QPS_CHUNK {
            out.chunk_qps
                .push(f64::from(chunk_answers) / since.as_secs_f64());
            (chunk_start, chunk_answers) = (Instant::now(), 0);
        }
        let (d, q) = picker.pick();
        let doc = &wire.docs[d].0;
        let text = &wire.queries[q];
        out.attempted += 1;
        let t0 = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(t) => {
                t.root("wire.query", "server", |_| client.query_text(doc, text))
                    .0
            }
            None => client.query_text(doc, text),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(answer) => {
                let s = answer.stats;
                if s.extensions_touched != s.cache_hits + s.materializations {
                    out.failures
                        .push(format!("{doc} {text}: ext != hits + mats in {s:?}"));
                } else if !expect.holds(d, q, &answer.nodes) {
                    out.failures
                        .push(format!("{doc} {text}: answer differs from the oracle"));
                } else {
                    out.latency_ms.push(ms);
                    chunk_answers += 1;
                    out.candidates.push(s.candidates as f64);
                }
                out.ext_touched += s.extensions_touched as u64;
            }
            Err(e) => {
                out.failures.push(format!("{doc} {text}: {e}"));
                if matches!(e, ClientError::Io(_)) {
                    break;
                }
            }
        }
    }
    let tail = chunk_start.elapsed();
    if chunk_answers > 0 && (out.chunk_qps.len() == 0 || tail >= QPS_CHUNK / 2) {
        out.chunk_qps
            .push(f64::from(chunk_answers) / tail.as_secs_f64());
    }
    let _ = client.quit();
    out
}

/// When a writer stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// At this instant.
    Deadline(Instant),
    /// After this many updates.
    Count(usize),
}

/// What the writer connection saw.
#[derive(Debug, Default)]
pub struct WriteOut {
    /// `UPDATE` round trips (ms).
    pub update_ms: Samples,
    /// `SAVE` round trips (ms).
    pub save_ms: Samples,
    /// Requests sent.
    pub attempted: u64,
    /// Failed, refused or wrong requests, described.
    pub failures: Vec<String>,
}

impl WriteOut {
    /// Moves the ledger into `report`.
    pub fn account(&self, report: &mut Report) {
        report.ops(self.attempted);
        for f in &self.failures {
            report.fail(f.clone());
        }
    }
}

/// Parses `bytes=<n>` from a `SAVE` acknowledgement.
pub fn saved_bytes(tail: &str) -> Option<u64> {
    tail.split_whitespace()
        .find_map(|t| t.strip_prefix("bytes=")?.parse().ok())
}

/// A closed-loop writer: seeded `UPDATE`s to document `doc`, mirrored on
/// the client, with a `SAVE` to `save_path` after every `save_every`
/// updates.
pub fn write_loop(
    client: &mut Client,
    doc: &str,
    mirror: &mut PDocument,
    stream: &mut EditStream,
    stop: Stop,
    save_every: usize,
    save_path: &str,
) -> WriteOut {
    let mut out = WriteOut::default();
    let mut updates = 0usize;
    loop {
        match stop {
            Stop::Deadline(t) if Instant::now() >= t => break,
            Stop::Count(n) if updates >= n => break,
            _ => {}
        }
        let edit = stream.next_edit(mirror);
        out.attempted += 1;
        // A rejected edit mutates nothing; an accepted one is mirrored
        // before it is sent, and a failed send ends the loop.
        let effect = match mirror.apply_edit(&edit) {
            Ok(effect) => effect,
            Err(e) => {
                out.failures
                    .push(format!("generated edit {edit} rejected locally: {e}"));
                break;
            }
        };
        let t0 = Instant::now();
        let result = client.update(doc, &edit);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(o) if o.edits == 1 && o.inserted == effect.inserted_root => {
                out.update_ms.push(ms);
                stream.applied(&effect);
            }
            Ok(o) => {
                out.failures
                    .push(format!("UPDATE {edit}: unexpected outcome {o:?}"));
                break;
            }
            Err(e) => {
                out.failures.push(format!("UPDATE {edit}: {e}"));
                break;
            }
        }
        updates += 1;
        if save_every > 0 && updates.is_multiple_of(save_every) {
            out.attempted += 1;
            let t0 = Instant::now();
            match client.save(save_path) {
                Ok(tail) => {
                    out.save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    if saved_bytes(&tail).is_none() {
                        out.failures.push(format!("SAVE: no bytes= in `{tail}`"));
                    }
                }
                Err(e) => {
                    out.failures.push(format!("SAVE: {e}"));
                    break;
                }
            }
        }
    }
    out
}

/// Asks every `(document, query)` once and checks each answer against the
/// oracle table bit for bit, and the window's `STATS` delta against the
/// `ext=` the answers reported. Nothing else may run on the server
/// meanwhile.
pub fn verify_all(
    client: &mut Client,
    wire: &Rendered,
    table: &[Vec<Nodes>],
    report: &mut Report,
    when: &str,
) -> Result<(), ClientError> {
    let before = client.stats()?;
    let mut ext = 0;
    for (d, (doc, _)) in wire.docs.iter().enumerate() {
        for (q, text) in wire.queries.iter().enumerate() {
            let answer = client.query_text(doc, text)?;
            ext += answer.stats.extensions_touched as u64;
            report.check(identical(&answer.nodes, &table[d][q]), || {
                format!("{when}: {doc} {text} is not bit-identical to the oracle")
            });
        }
    }
    let after = client.stats()?;
    report.ops(2);
    check_ext_identity(report, &before, &after, ext, when);
    Ok(())
}

/// Checks `extensions_touched = exthits + mats` over a `STATS` window.
pub fn check_ext_identity(
    report: &mut Report,
    before: &HashMap<String, u64>,
    after: &HashMap<String, u64>,
    ext_touched: u64,
    when: &str,
) {
    let counted = ext_reads(after).wrapping_sub(ext_reads(before));
    report.check(counted == ext_touched, || {
        format!("{when}: answers touched {ext_touched} extensions, STATS counted {counted}")
    });
}

/// `K` timed cycles of `RESTORE` plus the first `QUERY` (document 0,
/// query 0), after one untimed cycle that reads the restored counters.
/// Each first answer must equal `want`, and each cycle's `STATS` delta
/// must match its `ext=`. Returns the cycle times (ms).
pub fn restart_cycles(
    client: &mut Client,
    wire: &Rendered,
    path: &str,
    cycles: usize,
    want: &Nodes,
    report: &mut Report,
) -> Result<Samples, ClientError> {
    let (doc, text) = (&wire.docs[0].0, &wire.queries[0]);
    client.restore(path)?;
    let restored = client.stats()?;
    report.ops(2);
    let mut times = Samples::new();
    for cycle in 0..cycles {
        let t0 = Instant::now();
        client.restore(path)?;
        let answer = client.query_text(doc, text)?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        report.ops(2);
        report.check(identical(&answer.nodes, want), || {
            format!("restart {cycle}: first answer is not bit-identical to a fresh engine")
        });
        let after = client.stats()?;
        report.ops(1);
        check_ext_identity(
            report,
            &restored,
            &after,
            answer.stats.extensions_touched as u64,
            "restart",
        );
    }
    Ok(times)
}
