//! Server-side counters and the one declaration of every served number.
//!
//! [`ServerStats`] holds the server's atomic totals and the request
//! latency histogram (a `pxv_obs::Histogram`, shared with the metrics
//! registry); `ServerMetrics` holds the registry's live handles (the
//! reactor gauges and the store counters). Everything else `prxd`
//! serves is a row of `ROWS`: a number's `STATS` key, its `METRICS`
//! family, kind and help text, and how to read it from a `Sample`.
//! `STATS` writes the rows that have a key, in table order; `METRICS`
//! renders the registry, then the rows that have a family. A counter is
//! added, renamed or documented here and nowhere else.

use pxv_engine::EngineStats;
use pxv_obs::{Counter, Exposition, Gauge, Histogram, Registry};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic lifetime counters of one server.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and admitted to the worker pool.
    pub(crate) connections: AtomicU64,
    /// Connections turned away at the limit (`ERR busy`).
    pub(crate) rejected: AtomicU64,
    /// Requests handled (including those answered with `ERR`).
    pub(crate) requests: AtomicU64,
    /// Requests whose response contained at least one `ERR` line (a
    /// `BATCH` with failing body lines counts once).
    pub(crate) errors: AtomicU64,
    /// Requests that arrived pipelined — queued behind an earlier,
    /// still-unanswered request on the same connection.
    pub(crate) pipelined: AtomicU64,
    /// Per-request latency histogram (dispatch to response written,
    /// queue wait included; microsecond samples). Cloned into the
    /// metrics registry as `pxv_server_request_us`.
    pub(crate) latency: Histogram,
}

/// A point-in-time copy of [`ServerStats`] (what `STATS` serializes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted and admitted.
    pub connections: u64,
    /// Connections rejected at the connection limit.
    pub rejected: u64,
    /// Requests handled.
    pub requests: u64,
    /// Requests whose response contained at least one `ERR` line.
    pub errors: u64,
    /// Requests that were queued behind another in-flight request on the
    /// same connection (pipelining depth indicator).
    pub pipelined: u64,
    /// Median request latency (bucket upper bound, µs).
    pub p50_us: u64,
    /// 99th-percentile request latency (bucket upper bound, µs).
    pub p99_us: u64,
}

impl ServerStats {
    pub(crate) fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            pipelined: self.pipelined.load(Ordering::Relaxed),
            p50_us: self.latency.quantile(0.50),
            p99_us: self.latency.quantile(0.99),
        }
    }
}

/// The server's live metric handles, registered under canonical
/// `pxv_<layer>_<name>` names. Reactor gauges are written from the poll
/// loop; the engine's and the server's lifetime totals are *sampled* into
/// the exposition at `METRICS` time (see [`ROWS`]) instead of being
/// double-counted into live handles.
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    /// The registry the live handles below are registered in.
    pub(crate) registry: Registry,
    /// Request units sitting in the worker queue at the last sweep.
    pub(crate) queue_depth: Gauge,
    /// Largest per-connection pipelining depth seen at the last sweep.
    pub(crate) pipeline_depth: Gauge,
    /// Engine epoch last observed by the reactor.
    pub(crate) epoch: Gauge,
    /// Microseconds between reactor observations across the iteration
    /// that noticed the last epoch change — how stale a freshly
    /// published epoch can look to connections.
    pub(crate) epoch_lag_us: Gauge,
    /// Poll-loop iteration latency (µs).
    pub(crate) poll_loop_us: Histogram,
    /// Snapshots written via `SAVE`.
    pub(crate) saves: Counter,
    /// Snapshots loaded via `RESTORE`.
    pub(crate) restores: Counter,
    /// Size of the last snapshot written (bytes).
    pub(crate) snapshot_bytes: Gauge,
}

impl ServerMetrics {
    /// Builds the registry and registers every live handle, attaching
    /// `request_latency` (the [`ServerStats`] histogram) under
    /// `pxv_server_request_us`.
    pub(crate) fn new(request_latency: Histogram) -> ServerMetrics {
        let registry = Registry::new();
        registry.attach_histogram(
            "pxv_server_request_us",
            "Request latency from dispatch to response written (µs).",
            request_latency,
        );
        let queue_depth = registry.gauge(
            "pxv_server_queue_depth",
            "Request units waiting in the worker queue.",
        );
        let pipeline_depth = registry.gauge(
            "pxv_server_pipeline_depth",
            "Largest per-connection pipelining depth at the last sweep.",
        );
        let epoch = registry.gauge(
            "pxv_server_epoch",
            "Engine epoch last observed by the reactor.",
        );
        let epoch_lag_us = registry.gauge(
            "pxv_server_epoch_lag_us",
            "Reactor observation gap across the last epoch change (µs).",
        );
        let poll_loop_us = registry.histogram(
            "pxv_server_poll_loop_us",
            "Poll-loop iteration latency (µs).",
        );
        let saves = registry.counter("pxv_store_saves_total", "Snapshots written via SAVE.");
        let restores =
            registry.counter("pxv_store_restores_total", "Snapshots loaded via RESTORE.");
        let snapshot_bytes = registry.gauge(
            "pxv_store_snapshot_bytes",
            "Size of the last snapshot written (bytes).",
        );
        ServerMetrics {
            registry,
            queue_depth,
            pipeline_depth,
            epoch,
            epoch_lag_us,
            poll_loop_us,
            saves,
            restores,
            snapshot_bytes,
        }
    }
}

/// Every source of a served number, read once per `STATS` or `METRICS`
/// request; the readers in [`ROWS`] project it.
pub(crate) struct Sample {
    /// The current epoch's engine counters.
    pub(crate) engine: EngineStats,
    /// The server's totals and latency quantiles.
    pub(crate) server: ServerStatsSnapshot,
    /// Loaded documents.
    pub(crate) docs: u64,
    /// Registered views.
    pub(crate) views: u64,
    /// The engine's catalog epoch.
    pub(crate) catalog_epoch: u64,
    /// Epochs published over the server's initial engine.
    pub(crate) published_epochs: u64,
    /// Currently open connections.
    pub(crate) active: u64,
    /// Requests the slow log recorded, kept or since dropped.
    pub(crate) slow_queries: u64,
    /// Span records dropped from overflowing trace rings.
    pub(crate) spans_dropped: u64,
}

/// The kind a `METRICS` family is exposed as.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// A monotone total.
    Counter,
    /// A point-in-time value.
    Gauge,
}

/// One served number.
pub(crate) struct Row {
    /// Its `STATS` key, if the `STATS` line carries it.
    pub(crate) key: Option<&'static str>,
    /// Its `METRICS` family (name, kind, help), if the table renders it.
    pub(crate) family: Option<(&'static str, Kind, &'static str)>,
    /// Reads the number from a sample.
    pub(crate) read: fn(&Sample) -> u64,
}

/// Every served number, in `STATS` order. prxbench and `prxload` parse
/// the `STATS` keys by name, so a key here is wire contract.
#[rustfmt::skip]
pub(crate) const ROWS: &[Row] = &[
    Row { key: Some("docs"), read: |s| s.docs,
          family: Some(("pxv_engine_docs", Kind::Gauge, "Loaded documents.")) },
    Row { key: Some("views"), read: |s| s.views,
          family: Some(("pxv_engine_views", Kind::Gauge, "Registered views.")) },
    Row { key: Some("epoch"), read: |s| s.catalog_epoch,
          family: Some(("pxv_engine_epoch", Kind::Gauge, "Catalog epoch (bumped per mutation).")) },
    // Epochs published by the server's `EpochEngine`. `METRICS` carries
    // it as the registry's `pxv_server_epoch` gauge (the value the
    // reactor last observed).
    Row { key: Some("engine_epoch"), read: |s| s.published_epochs, family: None },
    Row { key: Some("queries"), read: |s| s.engine.queries,
          family: Some(("pxv_engine_queries_total", Kind::Counter, "Queries answered.")) },
    Row { key: Some("tp"), read: |s| s.engine.plans_tp,
          family: Some(("pxv_engine_tp_plans_total", Kind::Counter,
                        "Single-view TP plans executed.")) },
    Row { key: Some("tpi"), read: |s| s.engine.plans_tpi,
          family: Some(("pxv_engine_tpi_plans_total", Kind::Counter,
                        "Interleaving TPI plans executed.")) },
    Row { key: Some("direct"), read: |s| s.engine.direct,
          family: Some(("pxv_engine_direct_total", Kind::Counter,
                        "Direct (view-less) evaluations.")) },
    Row { key: Some("mats"), read: |s| s.engine.materializations,
          family: Some(("pxv_engine_materializations_total", Kind::Counter,
                        "View extensions materialized.")) },
    Row { key: Some("exthits"), read: |s| s.engine.cache_hits,
          family: Some(("pxv_engine_cache_hits_total", Kind::Counter, "Extension cache hits.")) },
    Row { key: Some("inval"), read: |s| s.engine.invalidations,
          family: Some(("pxv_engine_invalidations_total", Kind::Counter,
                        "Invalidations that evicted at least one cached extension.")) },
    Row { key: Some("planhits"), read: |s| s.engine.plan_cache_hits,
          family: Some(("pxv_engine_plan_cache_hits_total", Kind::Counter, "Plan cache hits.")) },
    Row { key: Some("planmiss"), read: |s| s.engine.plan_cache_misses,
          family: Some(("pxv_engine_plan_cache_misses_total", Kind::Counter,
                        "Plan cache misses.")) },
    Row { key: Some("edits"), read: |s| s.engine.edits_applied,
          family: Some(("pxv_engine_edits_total", Kind::Counter, "Document edits applied.")) },
    Row { key: Some("deltas"), read: |s| s.engine.deltas_applied,
          family: Some(("pxv_engine_deltas_total", Kind::Counter,
                        "Extensions maintained incrementally under edits.")) },
    Row { key: Some("fallbacks"), read: |s| s.engine.delta_fallbacks,
          family: Some(("pxv_engine_delta_fallbacks_total", Kind::Counter,
                        "Maintenance steps that fell back to full rematerialization.")) },
    Row { key: Some("cache_bytes"), read: |s| s.engine.cache_bytes,
          family: Some(("pxv_cache_bytes", Kind::Gauge, "Bytes held by the extension cache.")) },
    Row { key: Some("evictions"), read: |s| s.engine.evictions,
          family: Some(("pxv_cache_evictions_total", Kind::Counter,
                        "Extensions evicted by the budget.")) },
    Row { key: Some("admission_rejects"), read: |s| s.engine.admission_rejects,
          family: Some(("pxv_cache_admission_rejects_total", Kind::Counter,
                        "Extensions refused admission by the budget.")) },
    Row { key: Some("sections_faulted"), read: |s| s.engine.sections_faulted,
          family: Some(("pxv_store_sections_faulted_total", Kind::Counter,
                        "Lazily restored snapshot sections decoded on first probe.")) },
    Row { key: Some("lazy_decode_ns"), read: |s| s.engine.lazy_decode_ns,
          family: Some(("pxv_store_lazy_decode_ns_total", Kind::Counter,
                        "Nanoseconds spent decoding lazily faulted sections.")) },
    Row { key: Some("conns"), read: |s| s.server.connections,
          family: Some(("pxv_server_connections_total", Kind::Counter,
                        "Connections accepted and admitted.")) },
    Row { key: Some("rejected"), read: |s| s.server.rejected,
          family: Some(("pxv_server_rejected_total", Kind::Counter,
                        "Connections rejected at the connection limit.")) },
    Row { key: Some("active"), read: |s| s.active,
          family: Some(("pxv_server_active_connections", Kind::Gauge,
                        "Currently open connections.")) },
    Row { key: Some("requests"), read: |s| s.server.requests,
          family: Some(("pxv_server_requests_total", Kind::Counter, "Requests handled.")) },
    Row { key: Some("errors"), read: |s| s.server.errors,
          family: Some(("pxv_server_errors_total", Kind::Counter,
                        "Requests answered with at least one ERR line.")) },
    Row { key: Some("pipelined"), read: |s| s.server.pipelined,
          family: Some(("pxv_server_pipelined_total", Kind::Counter,
                        "Requests that arrived pipelined behind an unanswered one.")) },
    Row { key: None, read: |s| s.slow_queries,
          family: Some(("pxv_server_slow_queries_total", Kind::Counter,
                        "Requests slower than the slow-log threshold.")) },
    Row { key: Some("spans_dropped"), read: |s| s.spans_dropped,
          family: Some(("pxv_obs_spans_dropped", Kind::Counter,
                        "Span records dropped from overflowing trace rings.")) },
    // Request latency quantiles (µs, bucket upper bounds). `METRICS`
    // carries the whole distribution as the registry's
    // `pxv_server_request_us` histogram.
    Row { key: Some("p50us"), read: |s| s.server.p50_us, family: None },
    Row { key: Some("p99us"), read: |s| s.server.p99_us, family: None },
];

/// Writes the `STATS` line: every row that has a key, in table order.
pub(crate) fn write_stats(out: &mut Vec<u8>, sample: &Sample) -> io::Result<()> {
    out.extend_from_slice(b"STATS");
    for row in ROWS {
        if let Some(key) = row.key {
            write!(out, " {key}={}", (row.read)(sample))?;
        }
    }
    writeln!(out)
}

/// Renders the `METRICS` exposition: the live registry, then every row
/// that has a family.
pub(crate) fn render_metrics(registry: &Registry, sample: &Sample) -> String {
    let mut x = Exposition::new();
    registry.render_into(&mut x);
    for row in ROWS {
        match row.family {
            Some((name, Kind::Counter, help)) => x.counter(name, help, (row.read)(sample)),
            Some((name, Kind::Gauge, help)) => x.gauge(name, help, (row.read)(sample)),
            None => {}
        }
    }
    x.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_obs::metrics::valid_metric_name;
    use std::collections::HashSet;
    use std::time::Duration;

    fn stats_keys() -> Vec<&'static str> {
        ROWS.iter().filter_map(|row| row.key).collect()
    }

    /// Every `METRICS` family: the registry's (read off its `# TYPE`
    /// lines), then the table's.
    fn family_names() -> Vec<String> {
        let registry = ServerMetrics::new(Histogram::new()).registry.render();
        let mut names: Vec<String> = registry
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .map(|rest| rest.split(' ').next().unwrap().to_string())
            .collect();
        assert!(names.contains(&"pxv_server_request_us".to_string()));
        names.extend(
            ROWS.iter()
                .filter_map(|row| row.family.map(|(name, _, _)| name.to_string())),
        );
        names
    }

    #[test]
    fn stats_keys_have_no_duplicates() {
        let keys = stats_keys();
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), keys.len());
    }

    #[test]
    fn stats_keys_are_wire_safe() {
        for k in stats_keys() {
            assert!(
                !k.is_empty()
                    && k.bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "key `{k}` must be lowercase identifier-safe"
            );
        }
    }

    #[test]
    fn family_names_are_valid_and_unique() {
        let names = family_names();
        for name in &names {
            assert!(valid_metric_name(name), "bad metric name `{name}`");
        }
        let unique: HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a family repeats in {names:?}");
    }

    #[test]
    fn snapshot_quantiles_come_from_the_shared_histogram() {
        let stats = ServerStats::default();
        let metrics = ServerMetrics::new(stats.latency.clone());
        for _ in 0..99 {
            stats.latency.record_duration(Duration::from_micros(3));
        }
        stats.latency.record_duration(Duration::from_millis(40));
        let snap = stats.snapshot();
        assert_eq!(snap.p50_us, 4);
        assert_eq!(snap.p99_us, 4);
        // The registry sees the same samples through the attached handle.
        let text = metrics.registry.render();
        assert!(text.contains("pxv_server_request_us_count 100"));
    }

    #[test]
    fn reactor_gauges_render_under_canonical_names() {
        let metrics = ServerMetrics::new(Histogram::new());
        metrics.queue_depth.set(3);
        metrics.epoch.set(7);
        metrics.poll_loop_us.record(120);
        metrics.saves.inc();
        let text = metrics.registry.render();
        for needle in [
            "pxv_server_queue_depth 3",
            "pxv_server_epoch 7",
            "# TYPE pxv_server_poll_loop_us histogram",
            "pxv_store_saves_total 1",
            "# TYPE pxv_server_pipeline_depth gauge",
            "# TYPE pxv_server_epoch_lag_us gauge",
            "# TYPE pxv_store_restores_total counter",
            "# TYPE pxv_store_snapshot_bytes gauge",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
