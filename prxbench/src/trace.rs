//! The traced run's span recorder. Spans are recorded by the benchmark's
//! own code around calls into each layer, kept in memory, and written
//! out once at the end as Chrome `trace_event` JSON.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// What was called.
    pub name: &'static str,
    /// The crate (layer) the call goes into.
    pub layer: &'static str,
    /// Spans of one root call share a trace id.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span recorder with an explicit stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    traces: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            traces: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span nested in the innermost open span. Returns
    /// `f`'s result and the span's duration in microseconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let parent = self.open.last().copied();
        let trace = match parent {
            Some(p) => self.spans[p].trace,
            None => {
                self.traces += 1;
                self.traces
            }
        };
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            layer,
            trace,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(index);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[index];
        span.start_ns = start;
        span.end_ns = end;
        (out, span.us())
    }

    /// Like [`Tracer::span`], but always starts a new trace.
    pub fn root<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let saved = std::mem::take(&mut self.open);
        let out = self.span(name, layer, f);
        self.open = saved;
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(span.us());
        }
        s
    }

    /// Self time (µs) by layer, summed over the spans inside traces whose
    /// root is named `root`: a span's duration minus the part its child
    /// spans cover. Also returns how many such roots there were.
    pub fn self_time_by_layer(&self, root: &str) -> (BTreeMap<&'static str, f64>, usize) {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let roots: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.trace)
            .collect();
        let mut by_layer = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if roots.binary_search(&s.trace).is_ok() {
                *by_layer.entry(s.layer).or_insert(0.0) += s.us() - child_us[i];
            }
        }
        (by_layer, roots.len())
    }

    /// The spans as one Chrome `trace_event` JSON document (complete
    /// events; one thread lane per trace).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.us(),
                s.trace
            );
        }
        out.push(']');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.root("outer", "rewrite", |t| {
            t.span("inner", "peval", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        t.root("other", "engine", |_| ());
        let (by_layer, roots) = t.self_time_by_layer("outer");
        assert_eq!(roots, 1);
        assert!(by_layer["peval"] >= 2000.0);
        assert!(by_layer["rewrite"] >= 1000.0);
        assert!(!by_layer.contains_key("engine"));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.durations("inner").len(), 1);
        assert!(t.chrome_json().contains("\"cat\":\"peval\""));
    }
}
