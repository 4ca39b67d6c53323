//! Concurrency tests for the observability substrate, in the antagonist
//! style of `tests/budget.rs`: worker threads hammer an instrument while
//! an antagonist flips global state underneath them, and the test checks
//! the conservation laws that must survive the race.

use pxv_obs::span::{Recorder, Span, SPAN_RING_CAPACITY};
use pxv_obs::{Histogram, Registry, SlowLog};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Concurrent histogram recording must lose no samples: the final count
/// and sum equal what the writers claim to have recorded, and bucket
/// counts in the rendered exposition are cumulative and monotone.
#[test]
fn histogram_survives_concurrent_recording() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let h = Histogram::new();
    let recorded_sum = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = h.clone();
            let recorded_sum = &recorded_sum;
            scope.spawn(move || {
                let mut local_sum = 0u64;
                for i in 0..PER_THREAD {
                    // Mix magnitudes so many buckets are exercised.
                    let v = (i % 17) + ((t as u64) << (i % 13));
                    h.record(v);
                    local_sum += v;
                }
                recorded_sum.fetch_add(local_sum, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
    assert_eq!(h.sum(), recorded_sum.load(Ordering::Relaxed));

    let registry = Registry::new();
    registry.attach_histogram("pxv_test_conc_us", "Concurrent samples.", h.clone());
    let text = registry.render();
    let mut last = 0u64;
    let mut bucket_lines = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("pxv_test_conc_us_bucket{le=\"") {
            let value: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
            assert!(value >= last, "cumulative buckets must be monotone: {line}");
            last = value;
            bucket_lines += 1;
        }
    }
    assert_eq!(bucket_lines, 33, "32 power-of-two buckets plus +Inf");
    assert_eq!(
        last,
        THREADS as u64 * PER_THREAD,
        "+Inf bucket holds everything"
    );
}

/// Writers record spans while an antagonist toggles the global recorder.
/// Whatever subset of spans lands must merge cleanly: the drain is
/// sorted by start time, and records + drops exactly account for every
/// span that was active at enter time — none invented, none lost.
#[test]
fn span_rings_merge_under_recorder_antagonist() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 2_000;
    Recorder::enable();
    let _ = Recorder::drain();
    let dropped_before = Recorder::dropped();
    let stop = AtomicBool::new(false);
    let attempted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let antagonist = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                Recorder::disable();
                std::thread::yield_now();
                Recorder::enable();
                std::thread::yield_now();
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let attempted = &attempted;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let mut span = Span::enter("antagonized");
                        if span.is_active() {
                            attempted.fetch_add(1, Ordering::Relaxed);
                        }
                        span.record("writer", w as u64);
                        span.record("i", i);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // Stop the antagonist *before* leaving the scope: nothing else
        // will, and the scope's implicit join would deadlock.
        stop.store(true, Ordering::Relaxed);
        antagonist.join().unwrap();
    });
    // The antagonist may have starved in its disabled half-cycle for the
    // writers' whole (fast, mostly-inert) run; one span recorded with
    // the recorder deterministically on guarantees there is something to
    // drain regardless of how that race went.
    Recorder::enable();
    {
        let mut span = Span::enter("antagonized");
        assert!(span.is_active());
        attempted.fetch_add(1, Ordering::Relaxed);
        span.record("writer", WRITERS as u64);
        span.record("i", 0);
    }
    let drained = Recorder::drain();
    Recorder::disable();

    let kept = drained.len() as u64;
    let dropped = Recorder::dropped() - dropped_before;
    let active = attempted.load(Ordering::Relaxed);
    assert!(active >= 1);
    assert_eq!(
        kept + dropped,
        active,
        "every active span is either drained or counted as dropped"
    );
    assert!(
        drained
            .windows(2)
            .all(|w| w[0].start_nanos <= w[1].start_nanos),
        "drain merges per-thread rings into start order"
    );
    for record in &drained {
        assert_eq!(record.name, "antagonized");
        assert_eq!(record.fields.len(), 2);
        assert_eq!(record.fields[0].0, "writer");
    }
    // Per-thread rings are bounded: one drain can never exceed
    // rings × capacity (writers + antagonist + this thread).
    assert!(kept <= ((WRITERS + 2) * SPAN_RING_CAPACITY) as u64);
}

/// A scraper renders the exposition while a writer keeps publishing new
/// "epochs" (bumping counters then the epoch gauge, the way the server
/// samples the engine's published epoch at scrape time). Every scrape
/// must parse, and counter samples must be monotone from one scrape to
/// the next — a scrape can never observe a counter going backwards,
/// whatever instant it raced the writer at. The writer publishes until
/// told to stop, and the scraper stops only once it has seen a published
/// epoch, so the two overlap by construction.
#[test]
fn metrics_scrape_races_epoch_publisher_monotonically() {
    let registry = std::sync::Arc::new(Registry::new());
    let queries = registry.counter("pxv_test_race_queries_total", "Queries.");
    let epoch = registry.gauge("pxv_test_race_epoch", "Published epoch.");
    let stop = AtomicBool::new(false);
    let mut last_queries = 0u64;
    let mut last_epoch_seen = 0u64;
    let published = std::thread::scope(|scope| {
        let writer = {
            let queries = queries.clone();
            let epoch = epoch.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut published = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..37 {
                        queries.inc();
                    }
                    published += 1;
                    epoch.set(published); // publish
                }
                published
            })
        };
        let mut scrapes = 0;
        while scrapes < 200 || last_epoch_seen < 1 {
            scrapes += 1;
            let text = registry.render();
            let mut scraped_queries = None;
            let mut scraped_epoch = None;
            for line in text.lines() {
                if let Some(v) = line.strip_prefix("pxv_test_race_queries_total ") {
                    scraped_queries = Some(v.parse::<u64>().expect("numeric counter"));
                }
                if let Some(v) = line.strip_prefix("pxv_test_race_epoch ") {
                    scraped_epoch = Some(v.parse::<u64>().expect("numeric gauge"));
                }
            }
            let q = scraped_queries.expect("counter rendered");
            let e = scraped_epoch.expect("gauge rendered");
            assert!(
                q >= last_queries,
                "counter went backwards across scrapes: {q} < {last_queries}"
            );
            last_queries = q;
            last_epoch_seen = last_epoch_seen.max(e);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap()
    });
    assert!(last_epoch_seen >= 1, "the race actually overlapped");
    assert_eq!(queries.get(), 37 * published, "no increments were lost");
}

/// Concurrent observers of a slow log with a flapping threshold: the log
/// never exceeds its capacity and only over-threshold entries are kept.
#[test]
fn slow_log_bounded_under_threshold_flapping() {
    let log = SlowLog::new(50);
    std::thread::scope(|scope| {
        let log = &log;
        scope.spawn(move || {
            for _ in 0..500 {
                log.set_threshold_us(10);
                std::thread::yield_now();
                log.set_threshold_us(90);
                std::thread::yield_now();
            }
        });
        for t in 0..4 {
            scope.spawn(move || {
                for i in 0..2_000u64 {
                    log.observe(Duration::from_micros(40 + (i % 30)), || {
                        format!("q t={t} i={i}")
                    });
                }
            });
        }
    });
    let records = log.records();
    assert!(records.len() <= pxv_obs::slow::SLOW_LOG_CAPACITY);
    assert!(records.iter().all(|r| (40..70).contains(&r.micros)));
}
