//! The `prxd` wire protocol: line-oriented requests and tagged-line
//! responses over plain TCP.
//!
//! Every request is one line of UTF-8 text (`BATCH` is followed by its
//! query lines); every response is one tagged line, except answers, which
//! are a header line followed by one `NODE` line per result. Payload
//! syntax is exactly the library's display forms: p-documents in the
//! `pxv_pxml::text` grammar, queries in the XPath-ish `pxv_tpq::parse`
//! notation — both round-trip through `Display`, which is what makes a
//! text protocol exact (`f64` probabilities are printed with Rust's
//! shortest-round-trip formatting, so a remote answer is bit-identical to
//! the in-process one).
//!
//! ```text
//! LOAD <doc> <pdoc-text>             -> OK doc <doc> nodes=<n>
//! VIEW <name> <tpq-text>             -> OK view <name>
//! WARM <doc>                         -> OK warmed <n>
//! QUERY <doc> <tpq-text> [opts]      -> ANSWER <n> ext=. hits=. mats=. cands=. plan=<route>
//!                                       NODE <node-id> <prob>   (n times)
//! BATCH <n>                          -> RESULTS <n>, then per line one
//!   <doc> <tpq-text>      (n lines)     ANSWER block or ERR line
//! STATS                              -> STATS key=value ...
//! STATS SLOW                         -> SLOW <n> threshold_us=<t>, then n entries:
//!   SLOWQ us=<micros> [spans=<k>] <request-line>, each followed by its
//!   k SLOWT <tree-line> lines when a span tree was captured
//! METRICS                            -> METRICS <n>, then n lines of
//!                                       Prometheus text exposition
//! TRACE ON|OFF                       -> OK trace on|off
//! TRACE DUMP                         -> TRACE <n>, then n lines of Chrome
//!                                       trace_event JSON (one event per line)
//! PROFILE <doc> <tpq-text> [opts]    -> PROFILE nodes=<n> parse_us=. plan_us=.
//!                                       probe_us=. mat_us=. eval_us=. ser_us=.
//!                                       total_us=. cache_bytes=. epoch=. plan=<route>
//! BUDGET <bytes|unbounded>           -> OK budget=<bytes|unbounded> cache_bytes=<n>
//! ADVISE [AUTO]                      -> ADVICE <n> logged=. distinct=. coverage=.
//!                                       admitted=. registered=., then n CAND lines:
//!   CAND <name> <admitted|skipped> covered=. weight=. marginal=. bytes=. pattern=<tpq-text>
//! INVALIDATE <doc>                   -> OK invalidated <n>
//! UPDATE <doc> <edit-spec>           -> OK updated edits=. deltas=. fallbacks=.
//!                                       exts=. [inserted=<id>]
//! SAVE <path>                        -> OK saved docs=. views=. exts=. epoch=. bytes=.
//! RESTORE <path>                     -> OK restored docs=. views=. exts=. epoch=.
//! SHUTDOWN                           -> OK shutting-down
//! PING                               -> PONG
//! QUIT                               -> OK bye
//! anything else                      -> ERR <code> <message>
//! ```
//!
//! `SAVE`/`RESTORE`/`SHUTDOWN` are **admin** commands: `SAVE` snapshots
//! the whole engine (documents, views, materialized extensions, catalog
//! epoch) atomically to a server-side file via `pxv-store`; `RESTORE`
//! replaces the engine with a snapshot's contents (bit-identical warm
//! cache — post-restore queries report `mats=0`); `SHUTDOWN` drains the
//! server gracefully, which is how `prxview serve --store` knows to
//! persist its final state. Paths are interpreted by the server process
//! — `prxd` is a trusted local/ops protocol, like `LOAD` already
//! implies.
//!
//! `QUERY` options are trailing `key=value` tokens: `limit=<n>`
//! (interleaving limit), `pref=prefer-tp|prefer-tpi|tp|tpi` (plan
//! preference), `fallback=forbid|direct`, `profile=true|false` (stage
//! timing; `PROFILE` is sugar for a profiled `QUERY` whose response
//! leads with the stage breakdown instead of the node list), and
//! `trace=true|false` (capture the query's causal span tree; the
//! `ANSWER` block is followed by a `TRACE <n>` frame of `n` rendered
//! tree lines — the answer itself stays bit-identical).
//!
//! `TRACE ON|OFF` toggles the process-wide span recorder; `TRACE DUMP`
//! drains it and returns every span since the last dump as Chrome
//! `trace_event` JSON, framed `TRACE <n>` + one event per line (the
//! whole frame concatenates to one JSON document loadable in
//! `about:tracing`/Perfetto).
//!
//! `METRICS` renders every server, engine, cache and store metric in the
//! Prometheus text format (`# HELP`/`# TYPE` comments plus
//! `name[{labels}] value` sample lines), framed by a `METRICS <n>`
//! header carrying the line count. `STATS SLOW` dumps the bounded
//! slow-query log (most recent first-in-first-out window of requests at
//! or above the server's threshold).
//!
//! `UPDATE` mutates a loaded document **in place**: the edit spec is the
//! `pxv_pxml::edit` wire form (`insert n<parent> <prob> <pdoc-text>`,
//! `delete n<node>`, `setprob n<node> <prob>`, `relabel n<node>
//! <label>`). Cached view extensions are maintained *incrementally*
//! (`deltas=`) with a counted fallback to full rematerialization
//! (`fallbacks=`) — the warm cache survives the edit, and post-edit
//! answers are bit-identical to a cold engine built from the post-edit
//! document (asserted by the e2e suite). Inserted subtrees get fresh
//! node ids assigned deterministically; `inserted=` reports the new
//! root so clients can address the grafted content.
//!
//! Every successful mutating verb — `LOAD`, `VIEW`, `UPDATE`,
//! `INVALIDATE`, `BUDGET`, `ADVISE AUTO`, `RESTORE` — publishes a new
//! engine epoch, so each advances `STATS engine_epoch` by one. A query
//! already running keeps the epoch it started on: an `INVALIDATE` or a
//! shrinking `BUDGET` drops cached extensions only for requests that
//! begin after it.

use pxv_engine::{AdvisorReport, Answer, Fallback, PlanPreference, QueryOptions, QueryStats};
use pxv_obs::QueryProfile;
use pxv_pxml::text::parse_pdocument;
use pxv_pxml::{Edit, NodeId, PDocument};
use pxv_tpq::parse::parse_pattern;
use pxv_tpq::TreePattern;
use std::fmt;
use std::io::{self, Write};

/// Cap on `BATCH <n>`: bounds how much a single request can make the
/// server buffer before answering.
pub const MAX_BATCH: usize = 4096;

/// Typed failure of parsing, execution, or admission; serialized as
/// `ERR <code> <message>` and parsed back by the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Blank request line.
    Empty,
    /// First token is not a known verb.
    UnknownCommand(String),
    /// Known verb, wrong shape; carries the usage string.
    Usage(String),
    /// The p-document payload did not parse or validate.
    BadDocument(String),
    /// The tree-pattern payload did not parse.
    BadPattern(String),
    /// A `key=value` query option was malformed.
    BadOption(String),
    /// An `UPDATE` edit spec did not parse, or the edit was rejected by
    /// structural validation (the document is untouched either way).
    BadEdit(String),
    /// `BATCH` count missing, non-numeric, zero, or over [`MAX_BATCH`].
    BadCount(String),
    /// The named document is not loaded on the server.
    UnknownDoc(String),
    /// The planner found no probabilistic rewriting (and fallback was
    /// forbidden) — the paper-level "cannot answer from views" outcome.
    Plan(String),
    /// Any other engine-side failure (duplicate view, invalid document…).
    Engine(String),
    /// A `SAVE`/`RESTORE` snapshot operation failed (i/o, corrupt or
    /// wrong-version file, invalid contents) — carries the typed
    /// `pxv_store::StoreError` rendering.
    Store(String),
    /// The server is at its connection limit.
    Busy,
    /// The server is shutting down.
    Shutdown,
    /// A response line did not parse (client-side only).
    Malformed(String),
}

impl ProtocolError {
    /// Stable machine-readable code (first token after `ERR`).
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::Empty => "empty",
            ProtocolError::UnknownCommand(_) => "unknown-command",
            ProtocolError::Usage(_) => "usage",
            ProtocolError::BadDocument(_) => "bad-document",
            ProtocolError::BadPattern(_) => "bad-pattern",
            ProtocolError::BadOption(_) => "bad-option",
            ProtocolError::BadEdit(_) => "bad-edit",
            ProtocolError::BadCount(_) => "bad-count",
            ProtocolError::UnknownDoc(_) => "unknown-doc",
            ProtocolError::Plan(_) => "plan",
            ProtocolError::Engine(_) => "engine",
            ProtocolError::Store(_) => "store",
            ProtocolError::Busy => "busy",
            ProtocolError::Shutdown => "shutdown",
            ProtocolError::Malformed(_) => "malformed",
        }
    }

    fn message(&self) -> String {
        match self {
            ProtocolError::Empty => "empty request".into(),
            ProtocolError::UnknownCommand(cmd) => format!("unknown command `{cmd}`"),
            ProtocolError::Usage(usage) => format!("usage: {usage}"),
            ProtocolError::BadDocument(m)
            | ProtocolError::BadPattern(m)
            | ProtocolError::BadOption(m)
            | ProtocolError::BadEdit(m)
            | ProtocolError::BadCount(m)
            | ProtocolError::Plan(m)
            | ProtocolError::Engine(m)
            | ProtocolError::Store(m)
            | ProtocolError::Malformed(m) => m.clone(),
            ProtocolError::UnknownDoc(doc) => format!("no document named `{doc}`"),
            ProtocolError::Busy => "connection limit reached".into(),
            ProtocolError::Shutdown => "server shutting down".into(),
        }
    }

    /// The `ERR` line (no trailing newline). Embedded newlines are
    /// flattened so the error stays one line.
    pub fn to_line(&self) -> String {
        format!("ERR {} {}", self.code(), self.message().replace('\n', " "))
    }

    /// Parses an `ERR <code> <message>` line back into the typed error.
    pub fn from_line(line: &str) -> Option<ProtocolError> {
        let rest = line.strip_prefix("ERR ")?;
        let (code, msg) = match rest.split_once(' ') {
            Some((c, m)) => (c, m.to_string()),
            None => (rest, String::new()),
        };
        Some(match code {
            "empty" => ProtocolError::Empty,
            "unknown-command" => ProtocolError::UnknownCommand(msg),
            // `message()` prefixes "usage: "; strip it so the round trip
            // does not stack prefixes.
            "usage" => {
                ProtocolError::Usage(msg.strip_prefix("usage: ").unwrap_or(&msg).to_string())
            }
            "bad-document" => ProtocolError::BadDocument(msg),
            "bad-pattern" => ProtocolError::BadPattern(msg),
            "bad-option" => ProtocolError::BadOption(msg),
            "bad-edit" => ProtocolError::BadEdit(msg),
            "bad-count" => ProtocolError::BadCount(msg),
            // The name travels in backticks: `no document named `hr``.
            "unknown-doc" => {
                ProtocolError::UnknownDoc(msg.split('`').nth(1).unwrap_or(&msg).to_string())
            }
            "plan" => ProtocolError::Plan(msg),
            "engine" => ProtocolError::Engine(msg),
            "store" => ProtocolError::Store(msg),
            "busy" => ProtocolError::Busy,
            "shutdown" => ProtocolError::Shutdown,
            other => ProtocolError::Malformed(format!("unknown error code `{other}`: {msg}")),
        })
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.message(), self.code())
    }
}

impl std::error::Error for ProtocolError {}

/// One parsed request line. `Batch` only carries the count — the session
/// reads the following lines itself (see [`parse_batch_line`]).
#[derive(Clone, Debug)]
pub enum Request {
    /// Register (or replace) a document under a name.
    Load {
        /// Document name (no whitespace).
        doc: String,
        /// Parsed p-document payload.
        pdoc: PDocument,
    },
    /// Register a view.
    View {
        /// View name (unique per server).
        name: String,
        /// The view's tree pattern.
        pattern: TreePattern,
    },
    /// Eagerly materialize every view over a document.
    Warm {
        /// Document name.
        doc: String,
    },
    /// Answer one query.
    Query {
        /// Document name.
        doc: String,
        /// The tree-pattern query.
        query: TreePattern,
        /// Per-request options parsed from trailing `key=value` tokens.
        options: QueryOptions,
    },
    /// Header of a batch; `count` query lines follow.
    Batch {
        /// How many `<doc> <tpq-text>` lines follow.
        count: usize,
    },
    /// Engine + server counters.
    Stats,
    /// Dump the bounded slow-query log.
    StatsSlow,
    /// Prometheus text exposition of every registered metric.
    Metrics,
    /// Answer one query with stage profiling forced on; the response
    /// leads with the stage breakdown.
    Profile {
        /// Document name.
        doc: String,
        /// The tree-pattern query.
        query: TreePattern,
        /// Per-request options (profiling already enabled).
        options: QueryOptions,
    },
    /// Drop a document's cached extensions.
    Invalidate {
        /// Document name.
        doc: String,
    },
    /// Apply one edit to a loaded document, incrementally maintaining
    /// its cached extensions.
    Update {
        /// Document name.
        doc: String,
        /// The parsed edit.
        edit: Edit,
    },
    /// Snapshot the whole engine to a server-side file (admin).
    Save {
        /// Destination path (server-side; may contain spaces).
        path: String,
    },
    /// Replace the engine with a snapshot's contents (admin).
    Restore {
        /// Source path (server-side; may contain spaces).
        path: String,
    },
    /// Set the extension-cache byte budget (admin); `u64::MAX` means
    /// unbounded.
    Budget {
        /// New budget in bytes.
        bytes: u64,
    },
    /// Run the view advisor over the server's query log; with `auto`
    /// the admitted candidates are also registered as views (admin).
    Advise {
        /// Register admitted candidates instead of only reporting them.
        auto: bool,
    },
    /// Toggle or dump the process-wide span recorder.
    Trace(TraceMode),
    /// Gracefully drain and stop the server (admin).
    Shutdown,
    /// Liveness probe.
    Ping,
    /// End the session.
    Quit,
}

/// What a `TRACE` request asks of the process-wide span recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Start recording spans from every request.
    On,
    /// Stop recording (already-buffered spans remain drainable).
    Off,
    /// Drain everything recorded so far as Chrome trace JSON.
    Dump,
}

/// Splits `line` into its first whitespace-delimited token and the rest.
fn split_token(line: &str) -> (&str, &str) {
    let line = line.trim_start();
    match line.split_once(char::is_whitespace) {
        Some((tok, rest)) => (tok, rest.trim_start()),
        None => (line, ""),
    }
}

/// Parses trailing `key=value` option tokens off a query body; returns
/// the remaining query text **verbatim** (never rebuilt from tokens —
/// whitespace inside quoted labels is significant) and the options.
/// Only *trailing* tokens with a known key, no quote character, and an
/// even number of quotes before them are consumed, so quoted labels
/// that merely look like options (`a/'p limit=3'`) stay part of the
/// query. With duplicate keys the rightmost token wins.
fn split_query_options(body: &str) -> Result<(String, QueryOptions), ProtocolError> {
    let mut rest = body.trim();
    let mut limit = None;
    let mut preference = None;
    let mut fallback = None;
    let mut profile = None;
    let mut trace = None;
    while let Some(cut) = rest.rfind(char::is_whitespace) {
        let token = rest[cut..].trim_start();
        if token.contains('\'') {
            break;
        }
        let Some((key, value)) = token.split_once('=') else {
            break;
        };
        let prefix = rest[..cut].trim_end();
        // An odd number of quotes before the token means it sits inside
        // an (ill-formed) quoted label — leave it to the pattern parser.
        if !prefix.matches('\'').count().is_multiple_of(2) {
            break;
        }
        match key {
            "limit" => {
                let parsed = value
                    .parse()
                    .map_err(|e| ProtocolError::BadOption(format!("limit=`{value}`: {e}")))?;
                limit.get_or_insert(parsed);
            }
            "pref" => {
                let parsed = match value {
                    "prefer-tp" => PlanPreference::PreferTp,
                    "prefer-tpi" => PlanPreference::PreferTpi,
                    "tp" => PlanPreference::TpOnly,
                    "tpi" => PlanPreference::TpiOnly,
                    other => {
                        return Err(ProtocolError::BadOption(format!(
                            "pref=`{other}` (want prefer-tp|prefer-tpi|tp|tpi)"
                        )))
                    }
                };
                preference.get_or_insert(parsed);
            }
            "fallback" => {
                let parsed = match value {
                    "forbid" => Fallback::Forbid,
                    "direct" => Fallback::Direct,
                    other => {
                        return Err(ProtocolError::BadOption(format!(
                            "fallback=`{other}` (want forbid|direct)"
                        )))
                    }
                };
                fallback.get_or_insert(parsed);
            }
            "profile" => {
                let parsed = match value {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(ProtocolError::BadOption(format!(
                            "profile=`{other}` (want true|false)"
                        )))
                    }
                };
                profile.get_or_insert(parsed);
            }
            "trace" => {
                let parsed = match value {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(ProtocolError::BadOption(format!(
                            "trace=`{other}` (want true|false)"
                        )))
                    }
                };
                trace.get_or_insert(parsed);
            }
            _ => break,
        }
        rest = prefix;
    }
    let defaults = QueryOptions::new();
    let options = QueryOptions::new()
        .interleaving_limit(limit.unwrap_or(defaults.get_interleaving_limit()))
        .plan_preference(preference.unwrap_or_default())
        .fallback(fallback.unwrap_or_default())
        .profile(profile.unwrap_or(false))
        .trace(trace.unwrap_or(false));
    Ok((rest.to_string(), options))
}

/// Renders the non-default parts of `options` as wire tokens (the inverse
/// of the trailing `key=value` parsing); empty for default options.
pub fn options_to_tokens(options: &QueryOptions) -> String {
    let defaults = QueryOptions::new();
    let mut out = String::new();
    if options.get_interleaving_limit() != defaults.get_interleaving_limit() {
        out.push_str(&format!(" limit={}", options.get_interleaving_limit()));
    }
    if options.get_plan_preference() != defaults.get_plan_preference() {
        out.push_str(match options.get_plan_preference() {
            PlanPreference::PreferTp => " pref=prefer-tp",
            PlanPreference::PreferTpi => " pref=prefer-tpi",
            PlanPreference::TpOnly => " pref=tp",
            PlanPreference::TpiOnly => " pref=tpi",
        });
    }
    if options.get_fallback() != defaults.get_fallback() {
        out.push_str(match options.get_fallback() {
            Fallback::Forbid => " fallback=forbid",
            Fallback::Direct => " fallback=direct",
        });
    }
    if options.get_profile() != defaults.get_profile() {
        out.push_str(" profile=true");
    }
    if options.get_trace() != defaults.get_trace() {
        out.push_str(" trace=true");
    }
    out
}

fn parse_query_body(body: &str, usage: &'static str) -> Result<Request, ProtocolError> {
    let (doc, rest) = split_token(body);
    if doc.is_empty() || rest.is_empty() {
        return Err(ProtocolError::Usage(usage.into()));
    }
    let (text, options) = split_query_options(rest)?;
    if text.is_empty() {
        return Err(ProtocolError::Usage(usage.into()));
    }
    let query = parse_pattern(&text).map_err(|e| ProtocolError::BadPattern(e.to_string()))?;
    Ok(Request::Query {
        doc: doc.to_string(),
        query,
        options,
    })
}

/// Parses one request line. `BATCH` returns only the header; feed the
/// following lines to [`parse_batch_line`].
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let line = line.trim();
    if line.is_empty() {
        return Err(ProtocolError::Empty);
    }
    let (verb, rest) = split_token(line);
    match verb.to_ascii_uppercase().as_str() {
        "LOAD" => {
            let (doc, text) = split_token(rest);
            if doc.is_empty() || text.is_empty() {
                return Err(ProtocolError::Usage("LOAD <doc> <pdoc-text>".into()));
            }
            let pdoc =
                parse_pdocument(text).map_err(|e| ProtocolError::BadDocument(e.to_string()))?;
            Ok(Request::Load {
                doc: doc.to_string(),
                pdoc,
            })
        }
        "VIEW" => {
            let (name, text) = split_token(rest);
            if name.is_empty() || text.is_empty() {
                return Err(ProtocolError::Usage("VIEW <name> <tpq-text>".into()));
            }
            let pattern =
                parse_pattern(text).map_err(|e| ProtocolError::BadPattern(e.to_string()))?;
            Ok(Request::View {
                name: name.to_string(),
                pattern,
            })
        }
        "WARM" => match split_token(rest) {
            (doc, "") if !doc.is_empty() => Ok(Request::Warm {
                doc: doc.to_string(),
            }),
            _ => Err(ProtocolError::Usage("WARM <doc>".into())),
        },
        "QUERY" => parse_query_body(
            rest,
            "QUERY <doc> <tpq-text> [limit=|pref=|fallback=|profile=|trace=]",
        ),
        "PROFILE" => {
            match parse_query_body(rest, "PROFILE <doc> <tpq-text> [limit=|pref=|fallback=]")? {
                Request::Query {
                    doc,
                    query,
                    options,
                } => Ok(Request::Profile {
                    doc,
                    query,
                    options: options.profile(true),
                }),
                _ => unreachable!("parse_query_body yields Query"),
            }
        }
        "BATCH" => {
            let count: usize = rest
                .trim()
                .parse()
                .map_err(|e| ProtocolError::BadCount(format!("batch count `{rest}`: {e}")))?;
            if count == 0 || count > MAX_BATCH {
                return Err(ProtocolError::BadCount(format!(
                    "batch count {count} out of range 1..={MAX_BATCH}"
                )));
            }
            Ok(Request::Batch { count })
        }
        "STATS" if rest.is_empty() => Ok(Request::Stats),
        "STATS" if rest.trim().eq_ignore_ascii_case("slow") => Ok(Request::StatsSlow),
        "METRICS" if rest.is_empty() => Ok(Request::Metrics),
        "METRICS" => Err(ProtocolError::Usage("METRICS".into())),
        "TRACE" => match rest.trim() {
            v if v.eq_ignore_ascii_case("on") => Ok(Request::Trace(TraceMode::On)),
            v if v.eq_ignore_ascii_case("off") => Ok(Request::Trace(TraceMode::Off)),
            v if v.eq_ignore_ascii_case("dump") => Ok(Request::Trace(TraceMode::Dump)),
            _ => Err(ProtocolError::Usage("TRACE ON|OFF|DUMP".into())),
        },
        "UPDATE" => {
            let (doc, spec) = split_token(rest);
            if doc.is_empty() || spec.is_empty() {
                return Err(ProtocolError::Usage(
                    "UPDATE <doc> insert n<parent> <prob> <pdoc-text> | delete n<node> | \
                     setprob n<node> <prob> | relabel n<node> <label>"
                        .into(),
                ));
            }
            let edit = Edit::parse(spec).map_err(|e| ProtocolError::BadEdit(e.to_string()))?;
            Ok(Request::Update {
                doc: doc.to_string(),
                edit,
            })
        }
        "INVALIDATE" => match split_token(rest) {
            (doc, "") if !doc.is_empty() => Ok(Request::Invalidate {
                doc: doc.to_string(),
            }),
            _ => Err(ProtocolError::Usage("INVALIDATE <doc>".into())),
        },
        "SAVE" => match rest.trim() {
            "" => Err(ProtocolError::Usage("SAVE <path>".into())),
            path => Ok(Request::Save {
                path: path.to_string(),
            }),
        },
        "RESTORE" => match rest.trim() {
            "" => Err(ProtocolError::Usage("RESTORE <path>".into())),
            path => Ok(Request::Restore {
                path: path.to_string(),
            }),
        },
        "BUDGET" => match rest.trim() {
            "" => Err(ProtocolError::Usage("BUDGET <bytes|unbounded>".into())),
            v if v.eq_ignore_ascii_case("unbounded") => Ok(Request::Budget { bytes: u64::MAX }),
            v => v
                .parse::<u64>()
                .map(|bytes| Request::Budget { bytes })
                .map_err(|_| ProtocolError::Usage("BUDGET <bytes|unbounded>".into())),
        },
        "ADVISE" => match rest.trim() {
            "" => Ok(Request::Advise { auto: false }),
            v if v.eq_ignore_ascii_case("auto") => Ok(Request::Advise { auto: true }),
            _ => Err(ProtocolError::Usage("ADVISE [AUTO]".into())),
        },
        "SHUTDOWN" if rest.is_empty() => Ok(Request::Shutdown),
        "PING" if rest.is_empty() => Ok(Request::Ping),
        "QUIT" if rest.is_empty() => Ok(Request::Quit),
        other => Err(ProtocolError::UnknownCommand(other.to_string())),
    }
}

/// Framing helper for evented servers: `Some(count)` iff `line` is a
/// well-formed `BATCH` header whose `count` body lines follow on the
/// connection. A malformed header (bad or out-of-range count) returns
/// `None` — it frames as an ordinary one-line request and earns its
/// `ERR` without consuming body lines, exactly like the threaded
/// server's inline parse did.
pub fn batch_header(line: &str) -> Option<usize> {
    match parse_request(line) {
        Ok(Request::Batch { count }) => Some(count),
        _ => None,
    }
}

/// Parses one `<doc> <tpq-text>` line of a `BATCH` body (no per-line
/// options — a batch runs under the engine's default options).
pub fn parse_batch_line(line: &str) -> Result<(String, TreePattern), ProtocolError> {
    let (doc, text) = split_token(line.trim());
    if doc.is_empty() || text.is_empty() {
        return Err(ProtocolError::Usage("<doc> <tpq-text>".into()));
    }
    let query = parse_pattern(text).map_err(|e| ProtocolError::BadPattern(e.to_string()))?;
    Ok((doc.to_string(), query))
}

/// An answer as it crosses the wire: node/probability pairs, the
/// [`QueryStats`] counters, and the human-readable route description.
/// Node ids and probabilities survive the round trip bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct WireAnswer {
    /// `(node, probability)` pairs, sorted by node id.
    pub nodes: Vec<(NodeId, f64)>,
    /// Per-query execution counters.
    pub stats: QueryStats,
    /// The route taken (plan shape and views, or direct evaluation).
    pub plan: String,
    /// The rendered span tree, when the query was sent `trace=true`.
    pub trace: Option<String>,
}

/// Serializes an [`Answer`] as an `ANSWER` header plus `NODE` lines.
pub fn write_answer<W: Write>(w: &mut W, answer: &Answer) -> io::Result<()> {
    writeln!(
        w,
        "ANSWER {} ext={} hits={} mats={} cands={} plan={}",
        answer.nodes.len(),
        answer.stats.extensions_touched,
        answer.stats.cache_hits,
        answer.stats.materializations,
        answer.stats.candidates,
        answer.description.replace('\n', " "),
    )?;
    for (n, p) in &answer.nodes {
        // `{}` on f64 prints the shortest string that parses back to the
        // same bits — the wire answer is exactly the in-process answer.
        writeln!(w, "NODE {n} {p}")?;
    }
    Ok(())
}

/// Parses an `ANSWER` header; returns the node count, stats, and route.
pub fn parse_answer_header(line: &str) -> Result<(usize, QueryStats, String), ProtocolError> {
    let malformed = |what: &str| ProtocolError::Malformed(format!("{what} in `{line}`"));
    let rest = line
        .strip_prefix("ANSWER ")
        .ok_or_else(|| malformed("missing ANSWER tag"))?;
    let (head, plan) = rest
        .split_once(" plan=")
        .ok_or_else(|| malformed("missing plan="))?;
    let mut tokens = head.split_whitespace();
    let count: usize = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed("bad node count"))?;
    let mut stats = QueryStats::default();
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| malformed("bad stat token"))?;
        let value: usize = value.parse().map_err(|_| malformed("bad stat value"))?;
        match key {
            "ext" => stats.extensions_touched = value,
            "hits" => stats.cache_hits = value,
            "mats" => stats.materializations = value,
            "cands" => stats.candidates = value,
            _ => return Err(malformed("unknown stat key")),
        }
    }
    Ok((count, stats, plan.to_string()))
}

/// Parses one `NODE <id> <prob>` line.
pub fn parse_node_line(line: &str) -> Result<(NodeId, f64), ProtocolError> {
    let malformed = || ProtocolError::Malformed(format!("bad NODE line `{line}`"));
    let rest = line.strip_prefix("NODE ").ok_or_else(malformed)?;
    let (node, prob) = rest.split_once(' ').ok_or_else(malformed)?;
    let id: u32 = node
        .strip_prefix('n')
        .and_then(|d| d.parse().ok())
        .ok_or_else(malformed)?;
    let p: f64 = prob.parse().map_err(|_| malformed())?;
    Ok((NodeId(id), p))
}

/// A stage breakdown as it crosses the wire: the answer size, the
/// profile key/value pairs (canonical [`pxv_obs::keys::PROFILE_KEYS`]
/// order), and the route description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireProfile {
    /// Number of answer nodes the profiled query produced.
    pub nodes: u64,
    /// The stage breakdown and context, times in microseconds.
    pub profile: QueryProfile,
    /// The route taken (plan shape and views, or direct evaluation).
    pub plan: String,
}

/// Serializes a profiled answer as the one-line `PROFILE` response.
/// `profile` is the completed record (engine stages plus the server's
/// parse/serialize contributions); times travel as microseconds.
pub fn write_profile<W: Write>(
    w: &mut W,
    answer: &Answer,
    profile: &QueryProfile,
) -> io::Result<()> {
    write!(w, "PROFILE nodes={}", answer.nodes.len())?;
    for (key, value) in profile.wire_pairs() {
        write!(w, " {key}={value}")?;
    }
    writeln!(w, " plan={}", answer.description.replace('\n', " "))
}

/// Parses a `PROFILE` response line. Times in the returned
/// [`QueryProfile`] are microseconds (the wire unit), not nanoseconds.
pub fn parse_profile_line(line: &str) -> Result<WireProfile, ProtocolError> {
    let malformed = |what: &str| ProtocolError::Malformed(format!("{what} in `{line}`"));
    let rest = line
        .strip_prefix("PROFILE ")
        .ok_or_else(|| malformed("missing PROFILE tag"))?;
    let (head, plan) = rest
        .split_once(" plan=")
        .ok_or_else(|| malformed("missing plan="))?;
    let mut nodes = None;
    let mut profile = QueryProfile::default();
    for token in head.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| malformed("bad profile token"))?;
        let value: u64 = value.parse().map_err(|_| malformed("bad profile value"))?;
        match key {
            "nodes" => nodes = Some(value),
            pxv_obs::keys::PROFILE_PARSE_US => profile.parse_nanos = value,
            pxv_obs::keys::PROFILE_PLAN_US => profile.plan_nanos = value,
            pxv_obs::keys::PROFILE_PROBE_US => profile.probe_nanos = value,
            pxv_obs::keys::PROFILE_MAT_US => profile.materialize_nanos = value,
            pxv_obs::keys::PROFILE_EVAL_US => profile.eval_nanos = value,
            pxv_obs::keys::PROFILE_SER_US => profile.serialize_nanos = value,
            pxv_obs::keys::PROFILE_TOTAL_US => profile.total_nanos = value,
            pxv_obs::keys::PROFILE_CACHE_BYTES => profile.cache_bytes = value,
            pxv_obs::keys::PROFILE_EPOCH => profile.epoch = value,
            _ => return Err(malformed("unknown profile key")),
        }
    }
    Ok(WireProfile {
        nodes: nodes.ok_or_else(|| malformed("missing nodes="))?,
        profile,
        plan: plan.to_string(),
    })
}

/// An advisor report as it crosses the wire: the header counters plus
/// one [`WireCandidate`] per candidate line.
#[derive(Clone, Debug, PartialEq)]
pub struct WireAdvice {
    /// Total queries recorded in the server's log (with multiplicity).
    pub logged: u64,
    /// Distinct `(doc, query)` keys in the log.
    pub distinct: u64,
    /// Best per-candidate covered query count among admitted candidates.
    pub coverage: u64,
    /// Number of admitted candidates.
    pub admitted: u64,
    /// Views actually registered (`ADVISE AUTO` only; 0 otherwise).
    pub registered: u64,
    /// Per-candidate rows, admitted first (server preserves score order).
    pub candidates: Vec<WireCandidate>,
}

/// One `CAND` line of an [`WireAdvice`] response.
#[derive(Clone, Debug, PartialEq)]
pub struct WireCandidate {
    /// Advisor-assigned view name.
    pub name: String,
    /// Whether the candidate fit the budget.
    pub admitted: bool,
    /// Distinct workload queries the candidate can serve at all.
    pub covered: u64,
    /// Total workload weight (query multiplicity) the candidate serves.
    pub weight: u64,
    /// Workload weight served *only* with this candidate added.
    pub marginal: u64,
    /// Measured extension footprint in bytes.
    pub bytes: u64,
    /// The candidate pattern in `pxv_tpq` display form.
    pub pattern: String,
}

/// Serializes an [`AdvisorReport`] as an `ADVICE` header plus `CAND`
/// lines. `registered` is the number of views `ADVISE AUTO` installed.
pub fn write_advice<W: Write>(
    w: &mut W,
    report: &AdvisorReport,
    registered: usize,
) -> io::Result<()> {
    writeln!(
        w,
        "ADVICE {} logged={} distinct={} coverage={} admitted={} registered={}",
        report.candidates.len(),
        report.logged,
        report.distinct,
        report.coverage(),
        report.admitted().count(),
        registered,
    )?;
    for c in &report.candidates {
        // `pattern=` comes last because pattern text may contain spaces.
        writeln!(
            w,
            "CAND {} {} covered={} weight={} marginal={} bytes={} pattern={}",
            c.name,
            if c.admitted { "admitted" } else { "skipped" },
            c.covered,
            c.weight,
            c.marginal_weight,
            c.projected_bytes,
            c.pattern,
        )?;
    }
    Ok(())
}

/// Parses an `ADVICE` header; returns the candidate-line count and the
/// header counters (an [`WireAdvice`] with an empty candidate list).
pub fn parse_advice_header(line: &str) -> Result<(usize, WireAdvice), ProtocolError> {
    let malformed = |what: &str| ProtocolError::Malformed(format!("{what} in `{line}`"));
    let rest = line
        .strip_prefix("ADVICE ")
        .ok_or_else(|| malformed("missing ADVICE tag"))?;
    let mut tokens = rest.split_whitespace();
    let count: usize = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed("bad candidate count"))?;
    let mut advice = WireAdvice {
        logged: 0,
        distinct: 0,
        coverage: 0,
        admitted: 0,
        registered: 0,
        candidates: Vec::new(),
    };
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| malformed("bad header token"))?;
        let value: u64 = value.parse().map_err(|_| malformed("bad header value"))?;
        match key {
            "logged" => advice.logged = value,
            "distinct" => advice.distinct = value,
            "coverage" => advice.coverage = value,
            "admitted" => advice.admitted = value,
            "registered" => advice.registered = value,
            _ => return Err(malformed("unknown header key")),
        }
    }
    Ok((count, advice))
}

/// Parses one `CAND` line of an advice response.
pub fn parse_cand_line(line: &str) -> Result<WireCandidate, ProtocolError> {
    let malformed = |what: &str| ProtocolError::Malformed(format!("{what} in `{line}`"));
    let rest = line
        .strip_prefix("CAND ")
        .ok_or_else(|| malformed("missing CAND tag"))?;
    let (head, pattern) = rest
        .split_once(" pattern=")
        .ok_or_else(|| malformed("missing pattern="))?;
    let mut tokens = head.split_whitespace();
    let name = tokens
        .next()
        .filter(|n| !n.is_empty())
        .ok_or_else(|| malformed("missing name"))?
        .to_string();
    let admitted = match tokens.next() {
        Some("admitted") => true,
        Some("skipped") => false,
        _ => return Err(malformed("bad admission flag")),
    };
    let mut cand = WireCandidate {
        name,
        admitted,
        covered: 0,
        weight: 0,
        marginal: 0,
        bytes: 0,
        pattern: pattern.to_string(),
    };
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| malformed("bad stat token"))?;
        let value: u64 = value.parse().map_err(|_| malformed("bad stat value"))?;
        match key {
            "covered" => cand.covered = value,
            "weight" => cand.weight = value,
            "marginal" => cand.marginal = value,
            "bytes" => cand.bytes = value,
            _ => return Err(malformed("unknown stat key")),
        }
    }
    Ok(cand)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        assert!(matches!(parse_request("PING"), Ok(Request::Ping)));
        assert!(matches!(parse_request("quit"), Ok(Request::Quit)));
        assert!(matches!(parse_request("STATS"), Ok(Request::Stats)));
        match parse_request("LOAD hr a[mux(0.4: b[c], 0.6: b)]").unwrap() {
            Request::Load { doc, pdoc } => {
                assert_eq!(doc, "hr");
                assert!(pdoc.validate().is_ok());
            }
            other => panic!("{other:?}"),
        }
        match parse_request("QUERY hr a/b[c] limit=500 pref=tpi fallback=direct").unwrap() {
            Request::Query {
                doc,
                query,
                options,
            } => {
                assert_eq!(doc, "hr");
                assert_eq!(query.to_string(), "a/b[c]");
                assert_eq!(options.get_interleaving_limit(), 500);
                assert_eq!(options.get_plan_preference(), PlanPreference::TpiOnly);
                assert_eq!(options.get_fallback(), Fallback::Direct);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Review regression: the query text must travel verbatim — quoted
    /// labels with significant whitespace, or spelled like option
    /// tokens, must survive `QUERY` parsing.
    #[test]
    fn quoted_labels_survive_query_option_stripping() {
        // A run of spaces inside a quoted label must not collapse.
        match parse_request("QUERY d a/'two  spaces' limit=9").unwrap() {
            Request::Query { query, options, .. } => {
                assert_eq!(query.output_label().name(), "two  spaces");
                assert_eq!(options.get_interleaving_limit(), 9);
            }
            other => panic!("{other:?}"),
        }
        // A quoted label that looks like an option token stays a label.
        match parse_request("QUERY d a/'p limit=3'").unwrap() {
            Request::Query { query, options, .. } => {
                assert_eq!(query.output_label().name(), "p limit=3");
                assert_eq!(
                    options.get_interleaving_limit(),
                    QueryOptions::new().get_interleaving_limit()
                );
            }
            other => panic!("{other:?}"),
        }
        // Duplicate option keys: the rightmost wins.
        match parse_request("QUERY d a/b limit=5 limit=9").unwrap() {
            Request::Query { options, .. } => {
                assert_eq!(options.get_interleaving_limit(), 9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn options_tokens_round_trip() {
        let options = QueryOptions::new()
            .interleaving_limit(777)
            .plan_preference(PlanPreference::PreferTpi)
            .fallback(Fallback::Direct);
        let line = format!("QUERY d a/b{}", options_to_tokens(&options));
        match parse_request(&line).unwrap() {
            Request::Query { options: got, .. } => {
                assert_eq!(got.get_interleaving_limit(), 777);
                assert_eq!(got.get_plan_preference(), PlanPreference::PreferTpi);
                assert_eq!(got.get_fallback(), Fallback::Direct);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(options_to_tokens(&QueryOptions::new()), "");
    }

    #[test]
    fn request_errors_are_typed() {
        assert!(matches!(parse_request("  "), Err(ProtocolError::Empty)));
        assert!(matches!(
            parse_request("FROB x"),
            Err(ProtocolError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse_request("LOAD onlyname"),
            Err(ProtocolError::Usage(_))
        ));
        assert!(matches!(
            parse_request("QUERY d a/b limit=abc"),
            Err(ProtocolError::BadOption(_))
        ));
        assert!(matches!(
            parse_request("BATCH 0"),
            Err(ProtocolError::BadCount(_))
        ));
        assert!(matches!(
            parse_request("LOAD d a[unclosed"),
            Err(ProtocolError::BadDocument(_))
        ));
        assert!(matches!(
            parse_request("VIEW v a//"),
            Err(ProtocolError::BadPattern(_))
        ));
    }

    #[test]
    fn update_requests_parse() {
        match parse_request("UPDATE hr setprob n4 0.25").unwrap() {
            Request::Update { doc, edit } => {
                assert_eq!(doc, "hr");
                assert_eq!(edit.to_string(), "setprob n4 0.25");
            }
            other => panic!("{other:?}"),
        }
        match parse_request("update hr insert n0 1 person[name['Zoe Q'], bonus[mug]]").unwrap() {
            Request::Update { edit, .. } => {
                assert!(matches!(edit, Edit::InsertSubtree { .. }));
                // The spec round-trips through the edit's display form.
                let again = parse_request(&format!("UPDATE hr {edit}")).unwrap();
                assert!(matches!(again, Request::Update { .. }));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request("UPDATE hr"),
            Err(ProtocolError::Usage(_))
        ));
        assert!(matches!(
            parse_request("UPDATE hr frobnicate n1"),
            Err(ProtocolError::BadEdit(_))
        ));
        assert!(matches!(
            parse_request("UPDATE hr delete x9"),
            Err(ProtocolError::BadEdit(_))
        ));
    }

    #[test]
    fn save_restore_shutdown_requests_parse() {
        match parse_request("SAVE /tmp/with space/engine.pxv").unwrap() {
            Request::Save { path } => assert_eq!(path, "/tmp/with space/engine.pxv"),
            other => panic!("{other:?}"),
        }
        match parse_request("restore snap.pxv").unwrap() {
            Request::Restore { path } => assert_eq!(path, "snap.pxv"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(parse_request("SHUTDOWN"), Ok(Request::Shutdown)));
        match parse_request("BUDGET 65536").unwrap() {
            Request::Budget { bytes } => assert_eq!(bytes, 65536),
            other => panic!("{other:?}"),
        }
        match parse_request("budget Unbounded").unwrap() {
            Request::Budget { bytes } => assert_eq!(bytes, u64::MAX),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request("ADVISE"),
            Ok(Request::Advise { auto: false })
        ));
        assert!(matches!(
            parse_request("advise auto"),
            Ok(Request::Advise { auto: true })
        ));
        assert!(matches!(
            parse_request("BUDGET"),
            Err(ProtocolError::Usage(_))
        ));
        assert!(matches!(
            parse_request("BUDGET -3"),
            Err(ProtocolError::Usage(_))
        ));
        assert!(matches!(
            parse_request("ADVISE NOW PLEASE"),
            Err(ProtocolError::Usage(_))
        ));
        assert!(matches!(
            parse_request("SAVE"),
            Err(ProtocolError::Usage(_))
        ));
        assert!(matches!(
            parse_request("RESTORE   "),
            Err(ProtocolError::Usage(_))
        ));
    }

    #[test]
    fn observability_requests_parse() {
        assert!(matches!(parse_request("METRICS"), Ok(Request::Metrics)));
        assert!(matches!(parse_request("metrics"), Ok(Request::Metrics)));
        assert!(matches!(
            parse_request("METRICS please"),
            Err(ProtocolError::Usage(_))
        ));
        assert!(matches!(
            parse_request("STATS SLOW"),
            Ok(Request::StatsSlow)
        ));
        assert!(matches!(
            parse_request("stats slow"),
            Ok(Request::StatsSlow)
        ));
        assert!(matches!(parse_request("STATS"), Ok(Request::Stats)));
        match parse_request("PROFILE hr IT-personnel//person[name]").unwrap() {
            Request::Profile { doc, options, .. } => {
                assert_eq!(doc, "hr");
                assert!(options.get_profile());
            }
            other => panic!("{other:?}"),
        }
        // `profile=` is an ordinary query option and round-trips.
        match parse_request("QUERY hr r//a profile=true limit=2").unwrap() {
            Request::Query { options, .. } => {
                assert!(options.get_profile());
                assert_eq!(options.get_interleaving_limit(), 2);
                let tokens = options_to_tokens(&options);
                assert!(tokens.contains("profile=true"), "{tokens}");
            }
            other => panic!("{other:?}"),
        }
        match parse_request("QUERY hr r//a profile=false").unwrap() {
            Request::Query { options, .. } => {
                assert!(!options.get_profile());
                assert_eq!(options_to_tokens(&options), "");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request("QUERY hr r//a profile=maybe"),
            Err(ProtocolError::BadOption(_))
        ));
        assert!(matches!(
            parse_request("PROFILE hr"),
            Err(ProtocolError::Usage(_))
        ));
    }

    #[test]
    fn trace_option_and_verb_round_trip() {
        // `trace=` is an ordinary query option and round-trips.
        match parse_request("QUERY hr r//a trace=true limit=2").unwrap() {
            Request::Query { options, .. } => {
                assert!(options.get_trace());
                assert_eq!(options.get_interleaving_limit(), 2);
                let tokens = options_to_tokens(&options);
                assert!(tokens.contains("trace=true"), "{tokens}");
                // And the tokens parse back to the same options.
                match parse_request(&format!("QUERY hr r//a{tokens}")).unwrap() {
                    Request::Query { options: back, .. } => {
                        assert!(back.get_trace());
                        assert_eq!(back.get_interleaving_limit(), 2);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        match parse_request("QUERY hr r//a trace=false").unwrap() {
            Request::Query { options, .. } => {
                assert!(!options.get_trace());
                assert_eq!(options_to_tokens(&options), "");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request("QUERY hr r//a trace=maybe"),
            Err(ProtocolError::BadOption(_))
        ));
        // A quoted label that merely looks like the option stays query.
        match parse_request("QUERY hr r/'p trace=true'").unwrap() {
            Request::Query { options, .. } => assert!(!options.get_trace()),
            other => panic!("{other:?}"),
        }
        // The TRACE verb, case-insensitively.
        assert!(matches!(
            parse_request("TRACE ON"),
            Ok(Request::Trace(TraceMode::On))
        ));
        assert!(matches!(
            parse_request("trace off"),
            Ok(Request::Trace(TraceMode::Off))
        ));
        assert!(matches!(
            parse_request("TRACE dump"),
            Ok(Request::Trace(TraceMode::Dump))
        ));
        assert!(matches!(
            parse_request("TRACE"),
            Err(ProtocolError::Usage(_))
        ));
        assert!(matches!(
            parse_request("TRACE sideways"),
            Err(ProtocolError::Usage(_))
        ));
    }

    #[test]
    fn profile_line_round_trips() {
        let answer = Answer {
            nodes: vec![(NodeId(3), 0.5)],
            plan: None,
            description: "TP plan via view `bs` (u=0)".into(),
            stats: QueryStats::default(),
            profile: None,
        };
        let profile = QueryProfile {
            parse_nanos: 12_000,
            plan_nanos: 34_000,
            probe_nanos: 5_000,
            materialize_nanos: 0,
            eval_nanos: 78_000,
            serialize_nanos: 9_000,
            total_nanos: 140_000,
            cache_bytes: 4096,
            epoch: 11,
        };
        let mut wire = Vec::new();
        write_profile(&mut wire, &answer, &profile).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let line = text.lines().next().unwrap();
        let back = parse_profile_line(line).unwrap();
        assert_eq!(back.nodes, 1);
        assert_eq!(back.plan, answer.description);
        // The wire carries microseconds; parse restores them verbatim.
        assert_eq!(back.profile.parse_nanos, 12);
        assert_eq!(back.profile.eval_nanos, 78);
        assert_eq!(back.profile.total_nanos, 140);
        assert_eq!(back.profile.cache_bytes, 4096);
        assert_eq!(back.profile.epoch, 11);
        assert!(parse_profile_line("PROFILE nodes=1").is_err());
        assert!(parse_profile_line("ANSWER 0").is_err());
    }

    #[test]
    fn error_lines_round_trip() {
        for err in [
            ProtocolError::Empty,
            ProtocolError::UnknownCommand("FROB".into()),
            ProtocolError::Store("corrupt at byte 42: bad section table".into()),
            ProtocolError::BadEdit("edit parse error: unknown edit verb `frob`".into()),
            ProtocolError::BadPattern("pattern parse error at byte 3: expected label".into()),
            ProtocolError::UnknownDoc("hr".into()),
            ProtocolError::Plan("no single-view TP rewriting over these views".into()),
            ProtocolError::Busy,
            ProtocolError::Shutdown,
        ] {
            let line = err.to_line();
            let back = ProtocolError::from_line(&line).expect("parses");
            assert_eq!(back.code(), err.code(), "{line}");
        }
        assert!(ProtocolError::from_line("OK bye").is_none());
    }

    #[test]
    fn answer_block_round_trips_bit_identically() {
        let answer = Answer {
            nodes: vec![(NodeId(5), 0.1 + 0.2), (NodeId(7), 1.0 / 3.0)],
            plan: None,
            description: "TP plan via view `bs` (u=0)".into(),
            stats: QueryStats {
                extensions_touched: 1,
                cache_hits: 1,
                materializations: 0,
                candidates: 4,
            },
            profile: None,
        };
        let mut wire = Vec::new();
        write_answer(&mut wire, &answer).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let mut lines = text.lines();
        let (count, stats, plan) = parse_answer_header(lines.next().unwrap()).unwrap();
        assert_eq!(count, 2);
        assert_eq!(stats, answer.stats);
        assert_eq!(plan, answer.description);
        let nodes: Vec<(NodeId, f64)> = lines.map(|l| parse_node_line(l).unwrap()).collect();
        // Bit-identical, not approximately equal.
        assert_eq!(nodes.len(), answer.nodes.len());
        for ((n1, p1), (n2, p2)) in nodes.iter().zip(&answer.nodes) {
            assert_eq!(n1, n2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
    }

    #[test]
    fn advice_block_round_trips() {
        let report = AdvisorReport {
            logged: 40,
            distinct: 3,
            budget: 4096,
            candidates: vec![
                pxv_engine::CandidateReport {
                    name: "adv1".into(),
                    pattern: parse_pattern("a/b[c]").unwrap(),
                    doc: 0,
                    covered: 2,
                    weight: 31,
                    marginal: 1,
                    marginal_weight: 9,
                    projected_bytes: 640,
                    build_nanos: 1_200,
                    score: 17.5,
                    admitted: true,
                },
                pxv_engine::CandidateReport {
                    name: "adv2".into(),
                    pattern: parse_pattern("a//'two  spaces'").unwrap(),
                    doc: 1,
                    covered: 1,
                    weight: 9,
                    marginal: 0,
                    marginal_weight: 0,
                    projected_bytes: 9_000,
                    build_nanos: 800,
                    score: 0.1,
                    admitted: false,
                },
            ],
        };
        let mut wire = Vec::new();
        write_advice(&mut wire, &report, 1).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let mut lines = text.lines();
        let (count, advice) = parse_advice_header(lines.next().unwrap()).unwrap();
        assert_eq!(count, 2);
        assert_eq!(advice.logged, 40);
        assert_eq!(advice.distinct, 3);
        assert_eq!(advice.coverage, 2);
        assert_eq!(advice.admitted, 1);
        assert_eq!(advice.registered, 1);
        let cands: Vec<WireCandidate> = lines.map(|l| parse_cand_line(l).unwrap()).collect();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].name, "adv1");
        assert!(cands[0].admitted);
        assert_eq!(cands[0].covered, 2);
        assert_eq!(cands[0].weight, 31);
        assert_eq!(cands[0].marginal, 9);
        assert_eq!(cands[0].bytes, 640);
        assert_eq!(cands[0].pattern, "a/b[c]");
        assert!(!cands[1].admitted);
        // Quoted labels with internal whitespace survive the wire verbatim.
        assert_eq!(cands[1].pattern, "a//'two  spaces'");
        assert!(parse_cand_line("CAND x admitted").is_err());
        assert!(parse_advice_header("ADVICE nope").is_err());
    }

    #[test]
    fn batch_lines() {
        let (doc, q) = parse_batch_line("hr IT-personnel//person/bonus[laptop]").unwrap();
        assert_eq!(doc, "hr");
        assert_eq!(q.mb_len(), 3);
        assert!(parse_batch_line("justadoc").is_err());
        assert!(matches!(
            parse_request("BATCH 5000"),
            Err(ProtocolError::BadCount(_))
        ));
    }
}
