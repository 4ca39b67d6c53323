//! Tests for the evented connection layer and the MVCC epoch read path:
//! connection counts far beyond the worker count, request pipelining
//! with bit-identical answers, admission-gauge hygiene, stalled-client
//! robustness, panic containment, and reader latency under an UPDATE
//! storm.

use pxv_engine::{Engine, View};
use pxv_pxml::edit::Edit;
use pxv_pxml::generators::personnel;
use pxv_pxml::text::parse_pdocument;
use pxv_pxml::PDocument;
use pxv_server::client::Client;
use pxv_server::serve::{serve, ServerConfig, ServerHandle};
use pxv_tpq::parse::parse_pattern;
use pxv_tpq::TreePattern;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const DOC: &str = "hr";

fn query_mix() -> Vec<TreePattern> {
    [
        "IT-personnel//person/bonus[laptop]",
        "IT-personnel//person/bonus[pda]",
        "IT-personnel//person/bonus[tablet]",
        "IT-personnel//person/bonus",
        "IT-personnel//person[name/Rick]/bonus[laptop]",
    ]
    .iter()
    .map(|s| parse_pattern(s).unwrap())
    .collect()
}

fn views() -> Vec<View> {
    vec![
        View::new(
            "v1BON",
            parse_pattern("IT-personnel//person[name/Rick]/bonus").unwrap(),
        ),
        View::new(
            "v2BON",
            parse_pattern("IT-personnel//person/bonus").unwrap(),
        ),
    ]
}

fn fixture_pdoc() -> PDocument {
    personnel(40, 3, 11).0
}

fn reference_engine() -> (Engine, pxv_engine::DocId) {
    let mut engine = Engine::new();
    let doc = engine.add_document(DOC, fixture_pdoc()).unwrap();
    engine.register_views(views()).unwrap();
    engine.warm(doc).unwrap();
    (engine, doc)
}

fn provisioned_server(workers: usize, max_connections: usize) -> ServerHandle {
    let handle = serve(
        Engine::new(),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            max_connections,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut c = Client::connect(handle.addr()).unwrap();
    c.load(DOC, &fixture_pdoc()).unwrap();
    for v in views() {
        c.view(&v.name, &v.pattern).unwrap();
    }
    assert_eq!(c.warm(DOC).unwrap(), 2);
    c.quit().unwrap();
    handle
}

/// Blocks until the admission gauge drains to `want` open connections
/// (the reactor observes closes asynchronously).
fn await_active(handle: &ServerHandle, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active_connections() != want {
        assert!(
            Instant::now() < deadline,
            "admission gauge stuck at {} (want {want}) — leaked slot",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The tentpole acceptance criterion: connections ≥ 8× the worker count,
/// all open *simultaneously*, all served. Under the old
/// thread-per-connection design 32 sessions on 2 workers would starve —
/// 30 connections would sit unserved until the first 2 quit.
#[test]
fn thirty_two_simultaneous_connections_on_two_workers_all_complete() {
    const CONNS: usize = 32;
    const WORKERS: usize = 2;
    let (reference, doc) = reference_engine();
    let mix = query_mix();
    let expected: Vec<_> = mix
        .iter()
        .map(|q| reference.answer(doc, q).unwrap().nodes)
        .collect();

    let handle = provisioned_server(WORKERS, 64);
    let addr = handle.addr();
    let barrier = Barrier::new(CONNS);
    std::thread::scope(|scope| {
        for t in 0..CONNS {
            let (barrier, mix, expected) = (&barrier, &mix, &expected);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap(); // session is live before the barrier
                barrier.wait(); // all 32 connections open at once
                for r in 0..10 {
                    let i = (t + r) % mix.len();
                    let got = client.query(DOC, &mix[i]).unwrap();
                    assert_eq!(got.nodes, expected[i], "client {t} round {r}");
                }
                client.quit().unwrap();
            });
        }
    });
    let stats = handle.stats();
    assert_eq!(stats.errors, 0);
    assert!(stats.connections >= (CONNS + 1) as u64);
    assert!(stats.requests >= (CONNS * 12) as u64);
    handle.shutdown();
}

/// Pipelining: a client that writes a whole round of requests before
/// reading anything gets every answer back, in order, bit-identical to
/// the in-process engine. The raw-socket variant asserts the strongest
/// form — the pipelined byte stream equals the concatenation of the
/// sequential per-request responses exactly.
#[test]
fn pipelined_wire_answers_bit_identical_to_in_process() {
    let (reference, doc) = reference_engine();
    let mix = query_mix();
    let handle = provisioned_server(2, 8);

    // Client-helper form: 4 rounds of the mix in one pipelined burst.
    let mut client = Client::connect(handle.addr()).unwrap();
    let burst: Vec<TreePattern> = (0..4).flat_map(|_| mix.clone()).collect();
    let answers = client.query_pipelined(DOC, &burst).unwrap();
    assert_eq!(answers.len(), burst.len());
    for (q, got) in burst.iter().zip(&answers) {
        let want = reference.answer(doc, q).unwrap().nodes;
        assert_eq!(got.nodes, want, "pipelined answer diverged for {q}");
    }
    client.quit().unwrap();

    // Raw-socket form: sequential responses first…
    let mut sequential = String::new();
    {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for q in &mix {
            writeln!(&stream, "QUERY {DOC} {q}").unwrap();
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            // `ANSWER <count> …`: the node-line count is the second token.
            let n: usize = header
                .split_whitespace()
                .nth(1)
                .and_then(|t| t.parse().ok())
                .unwrap_or_else(|| panic!("unparseable header: {header}"));
            sequential.push_str(&header);
            for _ in 0..n {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                sequential.push_str(&line);
            }
        }
        writeln!(&stream, "QUIT").unwrap();
    }
    // …then the same five queries written as one burst before any read.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut burst_bytes = String::new();
    for q in &mix {
        burst_bytes.push_str(&format!("QUERY {DOC} {q}\n"));
    }
    (&stream).write_all(burst_bytes.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let want_lines = sequential.lines().count();
    let mut pipelined = String::new();
    for _ in 0..want_lines {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
        pipelined.push_str(&line);
    }
    assert_eq!(
        pipelined, sequential,
        "pipelined byte stream ≡ sequential responses"
    );
    writeln!(&stream, "QUIT").unwrap();
    drop(stream);

    assert!(
        handle.stats().pipelined > 0,
        "the bursts actually queued behind in-flight requests"
    );
    handle.shutdown();
}

/// Admission-slot hygiene (the old accept-loop leaked its gauge on a
/// dispatch error, permanently shrinking capacity): however sessions end
/// — QUIT, abrupt drop, or rejection at the limit — the gauge returns to
/// zero and the freed slots are immediately reusable.
#[test]
fn admission_gauge_returns_to_zero_after_drain() {
    let handle = provisioned_server(1, 2);

    // Fill both slots, get a third rejected, then drop everything —
    // the admitted pair abruptly (no QUIT), the rejected one too.
    let mut a = Client::connect(handle.addr()).unwrap();
    a.ping().unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    b.ping().unwrap();
    await_active(&handle, 2);
    let mut rejected = Client::connect(handle.addr()).unwrap();
    assert!(rejected.ping().is_err(), "third connection turned away");
    assert_eq!(handle.stats().rejected, 1);
    drop(a);
    drop(b);
    drop(rejected);
    await_active(&handle, 0);

    // No leak: the drained slots admit a full new pair which is served.
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut d = Client::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    d.ping().unwrap();
    assert!(!c.query(DOC, &query_mix()[0]).unwrap().nodes.is_empty());
    c.quit().unwrap();
    d.quit().unwrap();
    await_active(&handle, 0);
    handle.shutdown();
}

/// A client that connects and then never reads (the old accept thread
/// would block writing `ERR busy` into its socket, wedging admission for
/// everyone) must not stall the server: existing sessions keep being
/// served, and the slot economy keeps working.
#[test]
fn stalled_rejected_client_does_not_wedge_admission() {
    let handle = provisioned_server(1, 1);
    let mut admitted = Client::connect(handle.addr()).unwrap();
    admitted.ping().unwrap();
    await_active(&handle, 1);

    // The stalled client: holds its socket open, never reads a byte.
    // The server's busy reply is best-effort and nonblocking.
    let stalled: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().rejected < 4 {
        assert!(Instant::now() < deadline, "rejections not processed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The admitted session is still fully alive behind the stalled ones.
    let got = admitted.query(DOC, &query_mix()[3]).unwrap();
    assert!(!got.nodes.is_empty());
    admitted.quit().unwrap();
    await_active(&handle, 0);

    // And the freed slot is usable while the stalled sockets linger.
    let mut next = Client::connect(handle.addr()).unwrap();
    next.ping().unwrap();
    next.quit().unwrap();
    drop(stalled);
    handle.shutdown();
}

/// Panic containment (the old server died by lock poisoning: one panic
/// while holding the engine write lock turned every subsequent request
/// into `ERR engine poisoned` forever): a request that panics
/// mid-update is answered with one `ERR engine` line, the connection
/// survives, and the engine keeps serving *and accepting writes*.
/// `__PANIC` is a debug-assertions-only fault-injection verb.
#[cfg(debug_assertions)]
#[test]
fn panicking_request_is_contained_and_the_server_stays_healthy() {
    let handle = provisioned_server(2, 8);

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "__PANIC").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR engine"),
        "panic answered as a typed error, got: {line}"
    );

    // The same connection is still usable after its request panicked.
    writeln!(&stream, "PING").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "PONG");
    writeln!(&stream, "QUIT").unwrap();

    // The engine still answers reads and still accepts writes — the
    // panicked update was discarded without poisoning anything.
    let (reference, doc) = reference_engine();
    let q = &query_mix()[0];
    let mut client = Client::connect(handle.addr()).unwrap();
    let got = client.query(DOC, q).unwrap();
    assert_eq!(got.nodes, reference.answer(doc, q).unwrap().nodes);
    let outcome = client
        .update(
            DOC,
            &Edit::InsertSubtree {
                parent: fixture_pdoc().root(),
                prob: 1.0,
                subtree: parse_pdocument("person[name[Ghost]]").unwrap(),
            },
        )
        .unwrap();
    assert_eq!(outcome.edits, 1, "writes publish normally after the panic");
    assert!(handle.stats().errors >= 1, "the panic was counted");
    client.quit().unwrap();
    handle.shutdown();
}

/// MVCC under fire: one writer applies a storm of UPDATEs while a reader
/// hammers queries on another connection. Every answer must be
/// bit-identical to the quiescent engine (the edits are answer-neutral:
/// they insert and delete bonus-less persons), no request may error, and
/// reader latency must stay bounded — readers resolve against published
/// epochs and never wait for a writer's prepare phase.
#[test]
fn reader_answers_stay_bit_identical_and_bounded_during_update_storm() {
    fn p99(mut samples: Vec<Duration>) -> Duration {
        samples.sort();
        samples[(samples.len() * 99 / 100).min(samples.len() - 1)]
    }

    let (reference, doc) = reference_engine();
    let mix = query_mix();
    let expected: Vec<_> = mix
        .iter()
        .map(|q| reference.answer(doc, q).unwrap().nodes)
        .collect();
    let handle = provisioned_server(2, 8);
    let addr = handle.addr();
    let root = fixture_pdoc().root();

    // Quiescent baseline.
    let mut reader = Client::connect(addr).unwrap();
    let mut quiet = Vec::with_capacity(300);
    for r in 0..300 {
        let q = &mix[r % mix.len()];
        let t0 = Instant::now();
        let got = reader.query(DOC, q).unwrap();
        quiet.push(t0.elapsed());
        assert_eq!(got.nodes, expected[r % mix.len()]);
    }

    // Storm: 120 insert+delete UPDATE pairs on a second connection.
    let storming = AtomicBool::new(true);
    let mut stormy = Vec::with_capacity(300);
    std::thread::scope(|scope| {
        let storming = &storming;
        scope.spawn(move || {
            let mut writer = Client::connect(addr).unwrap();
            for _ in 0..120 {
                let outcome = writer
                    .update(
                        DOC,
                        &Edit::InsertSubtree {
                            parent: root,
                            prob: 1.0,
                            subtree: parse_pdocument("person[name[Ghost]]").unwrap(),
                        },
                    )
                    .unwrap();
                let ghost = outcome.inserted.expect("insert reports its root");
                writer
                    .update(DOC, &Edit::DeleteSubtree { node: ghost })
                    .unwrap();
            }
            writer.quit().unwrap();
            storming.store(false, Ordering::SeqCst);
        });
        let mut r = 0usize;
        while storming.load(Ordering::SeqCst) || r < 300 {
            let q = &mix[r % mix.len()];
            let t0 = Instant::now();
            let got = reader.query(DOC, q).unwrap();
            stormy.push(t0.elapsed());
            assert_eq!(
                got.nodes,
                expected[r % mix.len()],
                "answer diverged mid-storm at round {r} for {q}"
            );
            r += 1;
        }
    });
    reader.quit().unwrap();

    assert!(stormy.len() >= 300);
    assert_eq!(handle.stats().errors, 0, "no request errored either side");
    let (pq, ps) = (p99(quiet), p99(stormy));
    // The 25 ms floor absorbs CI scheduler noise while still catching
    // actual reader/writer blocking (which shows up as tens of
    // milliseconds, not 3×).
    let bound = (pq * 3).max(Duration::from_millis(25));
    assert!(
        ps <= bound,
        "reader p99 under storm {ps:?} exceeds {bound:?} (quiet p99 {pq:?})"
    );
    handle.shutdown();
}
