//! `prxload` — closed-loop load generator for a running `prxd` server.
//!
//! ```text
//! prxload [--addr HOST:PORT] [--connections N] [--requests N]
//!         [--persons N] [--storm] [--no-setup] [--quiet]
//! ```
//!
//! Unless `--no-setup` is given, it first provisions the personnel workload
//! (document name `b10`) on the server over the wire: a generated `personnel` p-document (seeded,
//! so every run and every in-process benchmark sees the same data), the
//! paper's `v1BON`/`v2BON` views, and a `WARM` pass. It then opens
//! `--connections` parallel clients, each issuing `--requests` `QUERY`s
//! round-robin over the bonus-query mix (the same mix as prxbench's
//! warm-eval workload), and reports aggregate throughput, per-connection
//! latency, and the server's protocol-error count. Exit code is non-zero
//! if any request failed — the CI smoke job asserts a zero-error burst.
//!
//! `--storm` adds one writer connection that applies `UPDATE`s (insert
//! then delete of a bonus-less person, so query answers are unaffected)
//! for the whole duration of the query burst — the CI storm job uses it
//! to prove readers ride published engine epochs instead of waiting on
//! writers.

use pxv_server::client::Client;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Document name used by the generated workload.
const DOC: &str = "b10";

/// The bonus-query mix (mirrors `personnel_queries` in prxbench's
/// `fixture.rs`, which is a separate package this binary cannot depend on).
const QUERIES: [&str; 5] = [
    "IT-personnel//person/bonus[laptop]",
    "IT-personnel//person/bonus[pda]",
    "IT-personnel//person/bonus[tablet]",
    "IT-personnel//person/bonus",
    "IT-personnel//person[name/Rick]/bonus[laptop]",
];

struct Args {
    addr: String,
    connections: usize,
    requests: usize,
    persons: usize,
    storm: bool,
    setup: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        connections: 8,
        requests: 200,
        persons: 100,
        storm: false,
        setup: true,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--connections" | "-c" => {
                args.connections = value(&flag)?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--requests" | "-n" => {
                args.requests = value(&flag)?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--persons" => {
                args.persons = value(&flag)?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--storm" => args.storm = true,
            "--no-setup" => args.setup = false,
            "--quiet" => args.quiet = true,
            other => {
                return Err(format!(
                    "unknown flag `{other}`\nusage: prxload [--addr HOST:PORT] [-c N] [-n N] \
                     [--persons N] [--storm] [--no-setup] [--quiet]"
                ))
            }
        }
    }
    if args.connections == 0 || args.requests == 0 {
        return Err("connections and requests must be positive".into());
    }
    Ok(args)
}

/// Provisions the workload over the wire: LOAD + views + WARM.
fn setup(args: &Args) -> Result<(), String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("setup: {what}: {e}");
    let mut c = Client::connect(&args.addr).map_err(|e| err("connect", &e))?;
    let (pdoc, _) = pxv_pxml::generators::personnel(args.persons, 3, 9);
    c.load(DOC, &pdoc).map_err(|e| err("load", &e))?;
    for (name, pattern) in [
        ("v1BON", "IT-personnel//person[name/Rick]/bonus"),
        ("v2BON", "IT-personnel//person/bonus"),
    ] {
        match c.view_text(name, pattern) {
            Ok(()) => {}
            // Re-running against a warm server: the duplicate-view
            // rejection (an `engine`-coded error) is expected and fine.
            Err(pxv_server::client::ClientError::Server(e)) if e.code() == "engine" => {}
            Err(e) => return Err(err("view", &e)),
        }
    }
    c.warm(DOC).map_err(|e| err("warm", &e))?;
    c.quit().map_err(|e| err("quit", &e))?;
    Ok(())
}

/// The storm writer: insert-then-delete `UPDATE` pairs on one dedicated
/// connection until the query burst ends. The inserted person carries no
/// `bonus` node, so every concurrent query's answer is unchanged — any
/// error or divergence the readers see is a server bug, not workload
/// noise. Returns (updates applied, update failures).
fn storm_loop(addr: &str, persons: usize, stop: &AtomicBool) -> (usize, usize) {
    use pxv_pxml::edit::Edit;
    use pxv_pxml::text::parse_pdocument;
    let Ok(mut writer) = Client::connect(addr) else {
        return (0, 1);
    };
    // Same seed as setup(): the generated document's root id is stable.
    let root = pxv_pxml::generators::personnel(persons, 3, 9).0.root();
    let subtree = parse_pdocument("person[name[Ghost]]").expect("static subtree");
    let (mut ok, mut failed) = (0usize, 0usize);
    while !stop.load(Ordering::Relaxed) {
        let inserted = writer.update(
            DOC,
            &Edit::InsertSubtree {
                parent: root,
                prob: 1.0,
                subtree: subtree.clone(),
            },
        );
        match inserted {
            Ok(outcome) => {
                ok += 1;
                let Some(ghost) = outcome.inserted else {
                    failed += 1;
                    continue;
                };
                match writer.update(DOC, &Edit::DeleteSubtree { node: ghost }) {
                    Ok(_) => ok += 1,
                    Err(_) => failed += 1,
                }
            }
            Err(_) => failed += 1,
        }
    }
    let _ = writer.quit();
    (ok, failed)
}

/// Pulls one sample value out of a Prometheus text exposition (first
/// line whose metric name matches exactly; labeled samples like
/// histogram buckets are matched by their bare name prefix).
fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (sample_name, value) = line.rsplit_once(' ')?;
        (sample_name == name).then(|| value.parse().ok())?
    })
}

/// Scrapes the server's `METRICS` exposition on a fresh connection.
fn scrape(addr: &str) -> Option<String> {
    let mut c = Client::connect(addr).ok()?;
    let text = c.metrics().ok()?;
    let _ = c.quit();
    Some(text)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.setup {
        setup(&args)?;
    }
    // Scrape METRICS on each side of the burst: the delta isolates this
    // run's traffic from whatever the server served before, and the CI
    // smoke job asserts the counters are monotone across scrapes.
    let before = scrape(&args.addr);
    // One client per connection, opened before the clock starts.
    let mut clients = Vec::with_capacity(args.connections);
    for _ in 0..args.connections {
        clients.push(Client::connect(&args.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let stop_storm = AtomicBool::new(false);
    let t0 = Instant::now();
    let (outcomes, storm): (Vec<(usize, usize)>, (usize, usize)) = std::thread::scope(|scope| {
        let storm_thread = args.storm.then(|| {
            let (addr, persons, stop) = (&args.addr, args.persons, &stop_storm);
            scope.spawn(move || storm_loop(addr, persons, stop))
        });
        let outcomes: Vec<(usize, usize)> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                scope.spawn(move || {
                    let mut ok = 0usize;
                    let mut failed = 0usize;
                    for r in 0..args.requests {
                        // Offset by connection index so variants interleave.
                        let q = QUERIES[(i + r) % QUERIES.len()];
                        match client.query_text(DOC, q) {
                            Ok(_) => ok += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    let _ = client.quit();
                    (ok, failed)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().expect("load thread panicked"))
            .collect();
        stop_storm.store(true, Ordering::Relaxed);
        let storm = storm_thread
            .map(|t| t.join().expect("storm thread panicked"))
            .unwrap_or((0, 0));
        (outcomes, storm)
    });
    let elapsed = t0.elapsed();
    let ok: usize = outcomes.iter().map(|&(ok, _)| ok).sum();
    let failed: usize = outcomes.iter().map(|&(_, f)| f).sum();
    let total = ok + failed;
    let qps = total as f64 / elapsed.as_secs_f64();
    if !args.quiet {
        println!(
            "prxload: {} connection(s) × {} request(s) in {:.3} s — {:.0} q/s aggregate \
             ({:.0} q/s per connection); {} ok, {} failed",
            args.connections,
            args.requests,
            elapsed.as_secs_f64(),
            qps,
            qps / args.connections as f64,
            ok,
            failed,
        );
        if args.storm {
            println!(
                "storm: {} update(s) applied concurrently, {} failed",
                storm.0, storm.1
            );
        }
        // Server-side view of the same burst.
        if let Ok(mut c) = Client::connect(&args.addr) {
            if let Ok(stats) = c.stats() {
                let get = |k: &str| stats.get(k).copied().unwrap_or(0);
                println!(
                    "server: requests={} errors={} p50={}µs p99={}µs planhits={} exthits={}",
                    get("requests"),
                    get("errors"),
                    get("p50us"),
                    get("p99us"),
                    get("planhits"),
                    get("exthits"),
                );
            }
            let _ = c.quit();
        }
        // The burst as the metrics endpoint saw it.
        if let (Some(before), Some(after)) = (&before, scrape(&args.addr)) {
            let delta = |name: &str| {
                metric_value(&after, name)
                    .zip(metric_value(before, name))
                    .map_or(0, |(a, b)| a.saturating_sub(b))
            };
            println!(
                "metrics: Δpxv_server_requests_total={} Δpxv_engine_queries_total={} \
                 Δpxv_engine_cache_hits_total={} request_us_count={}",
                delta("pxv_server_requests_total"),
                delta("pxv_engine_queries_total"),
                delta("pxv_engine_cache_hits_total"),
                metric_value(&after, "pxv_server_request_us_count").unwrap_or(0),
            );
        }
    }
    Ok(failed == 0 && storm.1 == 0)
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
