//! Exporters for drained spans: Chrome `trace_event` JSON (loadable in
//! `about:tracing` / Perfetto), a plain-text tree renderer, and a
//! std-only JSON checker used by tests and the CI trace-smoke job.
//!
//! The Chrome mapping: every [`SpanRecord`] becomes one complete event
//! (`"ph":"X"`) with `ts`/`dur` in fractional microseconds relative to
//! the recorder's process epoch, `pid` fixed at 1, and `tid` set to the
//! **trace id** — so each request renders as its own lane with the
//! request's span tree stacked inside it by start/duration nesting. The
//! causal ids and any recorded fields ride in `args`.

use crate::span::SpanRecord;
use crate::trace::{build_trees, TraceNode};
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders span records as Chrome `trace_event` JSON: an object with a
/// `traceEvents` array, one complete (`"ph":"X"`) event per line so the
/// export frames cleanly over the line-oriented wire protocol. The
/// output round-trips [`check_chrome_trace`].
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"pxv\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{}",
            escape_json(r.name),
            r.start_nanos / 1_000,
            r.start_nanos % 1_000,
            r.nanos / 1_000,
            r.nanos % 1_000,
            r.trace_id,
            r.trace_id,
            r.span_id,
            r.parent_id,
        );
        for (key, value) in &r.fields {
            let _ = write!(out, ",\"{}\":{}", escape_json(key), value);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}");
    out
}

/// Renders span records as an indented plain-text tree, one trace per
/// block: a `trace <id>` heading followed by its spans, children
/// indented two spaces under their parent, each line
/// `<name> <µs>us[ key=value …]`. Lines never start or end blank, so
/// the rendering frames over the wire as a counted line block.
pub fn render_text_tree(records: &[SpanRecord]) -> String {
    fn node(out: &mut String, n: &TraceNode, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "{} {}.{:03}us",
            n.record.name,
            n.record.nanos / 1_000,
            n.record.nanos % 1_000
        );
        for (key, value) in &n.record.fields {
            let _ = write!(out, " {key}={value}");
        }
        out.push('\n');
        for child in &n.children {
            node(out, child, depth + 1);
        }
    }
    let mut out = String::new();
    for tree in build_trees(records) {
        let _ = writeln!(out, "trace {}", tree.trace_id);
        for root in &tree.roots {
            node(&mut out, root, 1);
        }
    }
    out
}

/// A parsed JSON value (the minimal model the checker needs).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (duplicate keys kept as-is).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (first match), else `None`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(JsonValue::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not reassembled — the
                            // checker never needs astral-plane names.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses one JSON document (std-only recursive descent; no trailing
/// garbage tolerated). Shared by the trace checker and the e2e tests.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Validates a Chrome `trace_event` export: parses the JSON, requires a
/// `traceEvents` array whose members are complete events (string
/// `name`, `"ph":"X"`, numeric non-negative `ts`/`dur`, numeric
/// `pid`/`tid`). Returns the event count.
pub fn check_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = parse_json(json)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing `traceEvents` member")?;
    let JsonValue::Array(events) = events else {
        return Err("`traceEvents` is not an array".into());
    };
    for (i, event) in events.iter().enumerate() {
        let ctx = |what: &str| format!("event {i}: {what}");
        if event.get("name").and_then(JsonValue::as_str).is_none() {
            return Err(ctx("missing string `name`"));
        }
        if event.get("ph").and_then(JsonValue::as_str) != Some("X") {
            return Err(ctx("`ph` must be \"X\""));
        }
        for key in ["ts", "dur", "pid", "tid"] {
            match event.get(key).and_then(JsonValue::as_num) {
                Some(n) if n >= 0.0 => {}
                _ => return Err(ctx(&format!("missing numeric `{key}`"))),
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &'static str, start: u64, dur: u64, ids: (u64, u64, u64)) -> SpanRecord {
        SpanRecord {
            name,
            start_nanos: start,
            nanos: dur,
            fields: Vec::new(),
            trace_id: ids.0,
            span_id: ids.1,
            parent_id: ids.2,
        }
    }

    #[test]
    fn chrome_export_round_trips_the_checker() {
        let mut req = record("request", 1_000, 9_500, (7, 1, 0));
        req.fields.push(("conn", 3));
        let records = vec![
            req,
            record("plan", 1_200, 2_000, (7, 2, 1)),
            record("eval", 3_500, 4_000, (7, 3, 1)),
        ];
        let json = chrome_trace_json(&records);
        assert_eq!(check_chrome_trace(&json).unwrap(), 3);
        let doc = parse_json(&json).unwrap();
        let JsonValue::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents is an array");
        };
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("request"));
        assert_eq!(events[0].get("tid").unwrap().as_num(), Some(7.0));
        assert_eq!(events[0].get("ts").unwrap().as_num(), Some(1.0));
        assert_eq!(events[0].get("dur").unwrap().as_num(), Some(9.5));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("span_id").unwrap().as_num(), Some(1.0));
        assert_eq!(args.get("conn").unwrap().as_num(), Some(3.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent_id")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
    }

    #[test]
    fn empty_export_is_valid() {
        let json = chrome_trace_json(&[]);
        assert_eq!(check_chrome_trace(&json).unwrap(), 0);
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        assert!(check_chrome_trace("not json").is_err());
        assert!(check_chrome_trace("{}").is_err());
        assert!(check_chrome_trace("{\"traceEvents\":3}").is_err());
        assert!(
            check_chrome_trace("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\"}]}").is_err(),
            "non-complete phases are rejected"
        );
        assert!(
            check_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"dur\":1,\"pid\":1}]}"
            )
            .is_err(),
            "missing tid"
        );
    }

    #[test]
    fn text_tree_indents_children_under_parents() {
        let records = vec![
            record("request", 1_000, 9_500, (7, 1, 0)),
            record("plan", 1_200, 2_000, (7, 2, 1)),
            record("eval", 3_500, 4_000, (7, 3, 1)),
            record("eval_tp", 3_600, 3_000, (7, 4, 3)),
        ];
        let text = render_text_tree(&records);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "trace 7");
        assert_eq!(lines[1], "  request 9.500us");
        assert_eq!(lines[2], "    plan 2.000us");
        assert_eq!(lines[3], "    eval 4.000us");
        assert_eq!(lines[4], "      eval_tp 3.000us");
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a\n\"b\"":[1, -2.5e1, true, null, "é"]}"#).unwrap();
        let arr = v.get("a\n\"b\"").unwrap();
        let JsonValue::Array(items) = arr else {
            panic!("array")
        };
        assert_eq!(items[0].as_num(), Some(1.0));
        assert_eq!(items[1].as_num(), Some(-25.0));
        assert_eq!(items[2], JsonValue::Bool(true));
        assert_eq!(items[3], JsonValue::Null);
        assert_eq!(items[4].as_str(), Some("é"));
        assert!(parse_json("{\"a\":1} tail").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    #[test]
    fn span_names_are_json_escaped() {
        let records = vec![record("weird\"name\\", 0, 1, (1, 1, 0))];
        let json = chrome_trace_json(&records);
        assert_eq!(check_chrome_trace(&json).unwrap(), 1);
        let doc = parse_json(&json).unwrap();
        let JsonValue::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!()
        };
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("weird\"name\\")
        );
    }
}
