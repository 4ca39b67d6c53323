//! What one run reports: named metrics with units, the operation ledger
//! (`attempted` / `failed`), the environment stamp, and the final JSON
//! line.

use crate::stats::Samples;
use std::fmt::Write as _;

/// End-to-end metrics, emitted by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("query_p25_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_qps", "1/s"),
    ("update_p25_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("checkpoint_p25_ms", "ms"),
    ("restart_p25_ms", "ms"),
    ("setup_s", "s"),
    ("space_ratio", "ratio"),
    ("snapshot_ratio", "ratio"),
];

/// Per-layer metrics, emitted by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.ping_us", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.parse_us", "us"),
    ("server.serialize_us", "us"),
    ("engine.plan_us", "us"),
    ("engine.probe_us", "us"),
    ("engine.materialize_us", "us"),
    ("engine.eval_us", "us"),
    ("engine.plan_hit_ratio", "ratio"),
    ("engine.ext_hit_ratio", "ratio"),
    ("engine.evictions_per_kq", "count"),
    ("engine.answer_us", "us"),
    ("engine.apply_edits_us", "us"),
    ("rewrite.answer_tp_us", "us"),
    ("rewrite.fr_tp_us", "us"),
    ("rewrite.candidates_per_query", "count"),
    ("rewrite.result_subtree_us", "us"),
    ("rewrite.execute_tpi_us", "us"),
    ("rewrite.materialize_ms", "ms"),
    ("rewrite.apply_delta_us", "us"),
    ("rewrite.delta_fallback_ratio", "ratio"),
    ("peval.boolean_probability_us", "us"),
    ("peval.max_world_us", "us"),
    ("tpq.embed_us", "us"),
    ("pxml.apply_edit_us", "us"),
    ("store.save_ms", "ms"),
    ("store.restore_lazy_ms", "ms"),
    ("store.first_fault_ms", "ms"),
    ("store.sections_faulted", "count"),
    ("store.lazy_decode_us", "us"),
    ("store.snapshot_bytes", "bytes"),
    ("self.server_us", "us"),
    ("self.engine_us", "us"),
    ("self.rewrite_us", "us"),
    ("self.peval_us", "us"),
    ("self.tpq_us", "us"),
    ("trace.untraced_query_p50_ms", "ms"),
    ("trace.traced_query_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The ledger and metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records a metric; the unit must match the metric table.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        println!("{name} = {value:.6} {unit}");
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records the `q`-quantile of `samples`, stating the sample count and
    /// how many samples lie beyond it.
    pub fn quantile(&mut self, name: &str, samples: &Samples, q: f64, unit: &str) {
        let value = samples.quantile(q);
        println!(
            "{name} = {value:.6} {unit}  (q={q} of n={} raw samples, {} beyond)",
            samples.len(),
            samples.beyond(q)
        );
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Prints the shape of a sample distribution (not a metric).
    pub fn shape(&self, name: &str, samples: &Samples) {
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let line: Vec<String> = qs
            .iter()
            .map(|&q| format!("p{}={:.3}", q * 100.0, samples.quantile(q)))
            .collect();
        println!(
            "{name} distribution (n={}): {}",
            samples.len(),
            line.join(" ")
        );
    }

    /// Counts `n` attempted operations.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed, refused or wrong operation that was already
    /// counted as attempted; the first few are described at the end.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// One attempted check: counts it, and counts it failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Whether every metric of `table` is present exactly once with its
    /// unit, and no other metric is; a mismatch is counted as a failure.
    pub fn expect_exactly(&mut self, table: &[(&str, &str)]) {
        for (name, unit) in table {
            let found: Vec<_> = self.metrics.iter().filter(|m| m.0 == *name).collect();
            let ok = found.len() == 1 && found[0].2 == *unit && found[0].1.is_finite();
            self.check(ok, || {
                format!("metric {name} [{unit}] missing, repeated or not finite")
            });
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !table.iter().any(|(n, _)| *n == m.0))
            .map(|m| m.0.clone())
            .collect();
        self.check(extra.is_empty(), || format!("unlisted metrics {extra:?}"));
    }

    /// Prints the failures, the `fail_ratio`, and the final JSON line.
    /// Returns whether the run was correct.
    pub fn finish(self) -> bool {
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let attempted = self.attempted.max(1);
        println!(
            "fail_ratio = {:.6} ratio  ({} failed of {} attempted)",
            self.failed as f64 / attempted as f64,
            self.failed,
            attempted
        );
        let correct = self.failed == 0;
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}
