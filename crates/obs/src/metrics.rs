//! Counters, gauges, fixed-bucket histograms, a naming [`Registry`], and
//! Prometheus text [`Exposition`].
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones over atomics: recording is one relaxed atomic op, safe from any
//! thread, and never allocates. A [`Registry`] binds handles to metric
//! names (scheme: `pxv_<layer>_<name>`, see DESIGN.md §12) and renders
//! them in the Prometheus text format; [`Exposition`] is the renderer
//! itself, usable standalone for metrics that are *sampled* at scrape
//! time (the server samples the engine's lifetime counters this way
//! instead of double-counting them into live handles).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of histogram buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))`, so 32 buckets cover 1 µs to over an hour when
/// samples are microseconds.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotone counter. [`Counter::store`] exists for *sampled* sources
/// (mirroring an external atomic at scrape time); live instrumentation
/// should only ever [`Counter::inc`]/[`Counter::add`].
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zeroed counter (not yet in any registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (for counters sampled from another source).
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge (queue depth, cache bytes, epoch…).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh zeroed gauge (not yet in any registry).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// A lock-free power-of-two histogram (the generalization of the server's
/// original one-off latency histogram). Recording is one atomic bucket
/// increment plus one sum update; quantiles walk the 32 buckets and
/// report the **upper bound** of the bucket containing the requested rank
/// — exact enough for p50/p99 dashboards, never more than 2× off.
///
/// Samples are dimensionless `u64`s; the convention throughout the
/// workspace is microseconds for latencies. A sample of 0 lands in the
/// first bucket; samples at or beyond `2^31` saturate into the last.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh empty histogram (not yet in any registry).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let idx = (63 - value.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Upper bound of the bucket holding the `q`-quantile
    /// (`0.0 < q <= 1.0`); 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << HISTOGRAM_BUCKETS
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// A snapshot of the per-bucket counts (non-cumulative).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }
}

/// Whether `name` is a well-formed metric name under the workspace
/// scheme: `pxv_` followed by lowercase ASCII, digits and underscores.
pub fn valid_metric_name(name: &str) -> bool {
    name.strip_prefix("pxv_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    })
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Clone, Debug)]
struct Entry {
    name: &'static str,
    help: &'static str,
    metric: Metric,
}

/// A named set of live metrics, rendered together. Registration is
/// idempotent: asking for an existing name (of the same kind) returns a
/// clone of the existing handle, so independent subsystems can share a
/// metric by name. Registering an existing name as a *different* kind
/// panics — that is a wiring bug, not a runtime condition.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &'static str, help: &'static str, metric: Metric) -> Metric {
        assert!(valid_metric_name(name), "bad metric name `{name}`");
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = entries.iter().find(|e| e.name == name) {
            match (&existing.metric, &metric) {
                (Metric::Counter(_), Metric::Counter(_))
                | (Metric::Gauge(_), Metric::Gauge(_))
                | (Metric::Histogram(_), Metric::Histogram(_)) => return existing.metric.clone(),
                _ => panic!("metric `{name}` re-registered as a different kind"),
            }
        }
        entries.push(Entry {
            name,
            help,
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        match self.register(name, help, Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => unreachable!("register returns the requested kind"),
        }
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        match self.register(name, help, Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => unreachable!("register returns the requested kind"),
        }
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        self.attach_histogram(name, help, Histogram::new())
    }

    /// Registers an *existing* histogram handle under `name` (or returns
    /// the already-registered one) — how the server exposes a histogram
    /// that another struct owns.
    pub fn attach_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        histogram: Histogram,
    ) -> Histogram {
        match self.register(name, help, Metric::Histogram(histogram)) {
            Metric::Histogram(h) => h,
            _ => unreachable!("register returns the requested kind"),
        }
    }

    /// Renders every registered metric into `exposition`, in
    /// registration order.
    pub fn render_into(&self, exposition: &mut Exposition) {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        for e in entries.iter() {
            match &e.metric {
                Metric::Counter(c) => exposition.counter(e.name, e.help, c.get()),
                Metric::Gauge(g) => exposition.gauge(e.name, e.help, g.get()),
                Metric::Histogram(h) => exposition.histogram(e.name, e.help, h),
            }
        }
    }

    /// The registry as Prometheus text.
    pub fn render(&self) -> String {
        let mut x = Exposition::new();
        self.render_into(&mut x);
        x.finish()
    }
}

/// A Prometheus text-format builder (`# HELP` / `# TYPE` comment lines
/// followed by sample lines). The one place the exposition grammar is
/// implemented — the [`Registry`] renders through it, and scrape-time
/// sampled metrics append to the same builder.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(valid_metric_name(name), "bad metric name `{name}`");
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(&help.replace('\n', " "));
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, suffix: &str, value: u64) {
        self.out.push_str(name);
        self.out.push_str(suffix);
        self.out.push(' ');
        self.out.push_str(&value.to_string());
        self.out.push('\n');
    }

    /// Appends one counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, "", value);
    }

    /// Appends one gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "gauge");
        self.sample(name, "", value);
    }

    /// Appends one histogram: cumulative `_bucket{le=…}` lines (one per
    /// power-of-two upper bound plus `+Inf`), then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, histogram: &Histogram) {
        self.header(name, help, "histogram");
        let counts = histogram.bucket_counts();
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            let le = 1u64 << (i + 1).min(63);
            self.out.push_str(name);
            self.out.push_str("_bucket{le=\"");
            self.out.push_str(&le.to_string());
            self.out.push_str("\"} ");
            self.out.push_str(&cumulative.to_string());
            self.out.push('\n');
        }
        self.out.push_str(name);
        self.out.push_str("_bucket{le=\"+Inf\"} ");
        self.out.push_str(&cumulative.to_string());
        self.out.push('\n');
        self.sample(name, "_sum", histogram.sum());
        self.sample(name, "_count", cumulative);
    }

    /// The rendered text (ends with a newline unless empty).
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        assert_eq!(h.count(), 0);
        for _ in 0..99 {
            h.record_duration(Duration::from_micros(3)); // bucket [2,4)
        }
        h.record_duration(Duration::from_millis(40)); // bucket [32768, 65536)
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(0.99), 4);
        assert_eq!(h.quantile(1.0), 65536);
        // Sub-microsecond latencies land in the first bucket.
        h.record_duration(Duration::from_nanos(10));
        assert_eq!(h.count(), 101);
        assert_eq!(h.sum(), 99 * 3 + 40_000);
    }

    #[test]
    fn histogram_zero_sample_quantiles_are_zero() {
        let h = Histogram::new();
        for q in [0.001, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn histogram_saturates_extreme_samples_into_last_bucket() {
        let h = Histogram::new();
        h.record(0); // clamped to 1 → first bucket
        h.record(u64::MAX); // saturates into the last bucket
        h.record(1u64 << 40);
        assert_eq!(h.count(), 3);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[HISTOGRAM_BUCKETS - 1], 2);
        // The last bucket's reported upper bound is 2^32 — a saturated
        // quantile is clearly marked as "off the scale", not garbage.
        assert_eq!(h.quantile(1.0), 1u64 << HISTOGRAM_BUCKETS);
    }

    #[test]
    fn metric_names_validate() {
        assert!(valid_metric_name("pxv_server_requests_total"));
        assert!(valid_metric_name("pxv_cache_bytes"));
        assert!(!valid_metric_name("pxv_"));
        assert!(!valid_metric_name("requests_total"));
        assert!(!valid_metric_name("pxv_Server_requests"));
        assert!(!valid_metric_name("pxv_bad-name"));
    }

    #[test]
    fn registry_is_idempotent_and_renders() {
        let r = Registry::new();
        let c1 = r.counter("pxv_test_hits_total", "Hits.");
        let c2 = r.counter("pxv_test_hits_total", "Hits.");
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3, "same underlying counter");
        let g = r.gauge("pxv_test_depth", "Depth.");
        g.set(7);
        let h = r.histogram("pxv_test_us", "Latency (µs).");
        h.record(5);
        let text = r.render();
        assert!(text.contains("# TYPE pxv_test_hits_total counter"));
        assert!(text.contains("pxv_test_hits_total 3"));
        assert!(text.contains("# TYPE pxv_test_depth gauge"));
        assert!(text.contains("pxv_test_depth 7"));
        assert!(text.contains("# TYPE pxv_test_us histogram"));
        assert!(text.contains("pxv_test_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("pxv_test_us_sum 5"));
        assert!(text.contains("pxv_test_us_count 1"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.counter("pxv_test_x", "X.");
        let _ = r.gauge("pxv_test_x", "X.");
    }

    /// Golden test: the exposition output for a fixed registry is
    /// byte-stable. External scrapers and the CI smoke greps depend on
    /// this exact shape — a formatting change must show up here.
    #[test]
    fn exposition_output_is_stable() {
        let r = Registry::new();
        r.counter("pxv_test_requests_total", "Requests handled.")
            .add(7);
        r.gauge("pxv_test_depth", "Queue depth.").set(2);
        let h = r.histogram("pxv_test_lat_us", "Latency (µs).");
        h.record(3); // bucket [2,4)
        h.record(5); // bucket [4,8)
        let text = r.render();
        let mut expected = String::from(
            "# HELP pxv_test_requests_total Requests handled.\n\
             # TYPE pxv_test_requests_total counter\n\
             pxv_test_requests_total 7\n\
             # HELP pxv_test_depth Queue depth.\n\
             # TYPE pxv_test_depth gauge\n\
             pxv_test_depth 2\n\
             # HELP pxv_test_lat_us Latency (µs).\n\
             # TYPE pxv_test_lat_us histogram\n",
        );
        let mut cumulative = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            cumulative += match i {
                1 => 1, // the 3
                2 => 1, // the 5
                _ => 0,
            };
            expected.push_str(&format!(
                "pxv_test_lat_us_bucket{{le=\"{}\"}} {}\n",
                1u64 << (i + 1),
                cumulative
            ));
        }
        expected.push_str("pxv_test_lat_us_bucket{le=\"+Inf\"} 2\n");
        expected.push_str("pxv_test_lat_us_sum 8\n");
        expected.push_str("pxv_test_lat_us_count 2\n");
        assert_eq!(text, expected);
    }

    /// Every non-comment exposition line must parse as `name[{labels}] value`
    /// — the shape the CI smoke job and external scrapers rely on.
    #[test]
    fn exposition_lines_parse_as_prometheus_text() {
        let r = Registry::new();
        r.counter("pxv_test_a_total", "A.").add(9);
        r.gauge("pxv_test_b", "B.").set(1);
        r.histogram("pxv_test_c_us", "C.").record(100);
        for line in r.render().lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            let bare = name.split('{').next().unwrap();
            assert!(bare.starts_with("pxv_test_"), "{line}");
            value.parse::<u64>().expect("numeric value");
        }
    }
}
