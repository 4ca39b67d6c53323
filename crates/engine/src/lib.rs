//! The stateful query-answering engine: a [`Catalog`] of registered views
//! with lazily-materialized, memoized extensions, and an [`Engine`] that
//! answers queries touching only those extensions — sequentially or in
//! concurrent batches. (Re-exported as `prxview::engine`; the TCP serving
//! layer in `pxv-server` wraps an [`EpochEngine`] behind a socket.)
//!
//! This is the session-style surface of the library — the paper's
//! scenario (§1, §7) is a warehouse that materializes view extensions
//! *once* and then serves many queries from them. The free functions of
//! `pxv_rewrite::answer` re-materialize every extension per call; the
//! engine pays materialization once per `(document, view)` pair and
//! amortizes it across queries:
//!
//! ```
//! use pxv_engine::{Engine, QueryOptions};
//! use pxv_pxml::text::parse_pdocument;
//! use pxv_rewrite::View;
//! use pxv_tpq::parse::parse_pattern;
//!
//! let mut engine = Engine::new();
//! let doc = engine
//!     .add_document("hr", parse_pdocument("a[mux(0.4: b[c], 0.6: b)]").unwrap())
//!     .unwrap();
//! engine.register_view(View::new("bs", parse_pattern("a/b").unwrap())).unwrap();
//!
//! let q = parse_pattern("a/b[c]").unwrap();
//! let first = engine.answer(doc, &q).unwrap();
//! assert_eq!(first.stats.materializations, 1); // cold: materialize `bs`
//! let second = engine.answer(doc, &q).unwrap();
//! assert_eq!(second.stats.materializations, 0); // warm: cache hit only
//! assert_eq!(second.stats.cache_hits, 1);
//! assert_eq!(first.nodes, second.nodes);
//! ```
//!
//! Execution is *minimal*: a plan only ever touches the extensions of the
//! views it references ([`Plan::referenced_views`]) — a TP∩ plan over a
//! catalog of fifty views materializes two extensions if its parts use
//! two views.
//!
//! # Concurrency
//!
//! Every mutation takes `&mut self`, so a shared engine changes only
//! through [`EpochEngine::update`], which clones it, mutates the clone
//! and publishes it atomically. All query paths take `&self`: the
//! catalog's extension cache is sharded under interior mutability
//! ([`RwLock`] shards keyed by a hash of the `(document, view)` pair) and
//! lifetime counters are atomics, so any number of threads may answer
//! queries against one engine concurrently.
//! [`Engine::answer_batch`] runs a slice of queries on a small
//! hand-rolled worker pool (scoped `std::thread`s pulling indices off an
//! atomic cursor). Materialization is *single-flight*: when two threads
//! race for the same cold extension, exactly one materializes while the
//! other blocks on the entry's [`OnceLock`] and then shares the result —
//! concurrent workloads never duplicate materialization work:
//!
//! ```
//! use pxv_engine::Engine;
//! use pxv_pxml::generators::personnel;
//! use pxv_rewrite::View;
//! use pxv_tpq::parse::parse_pattern;
//!
//! let mut engine = Engine::new();
//! let (pdoc, _) = personnel(10, 2, 7);
//! let doc = engine.add_document("hr", pdoc).unwrap();
//! engine
//!     .register_view(View::new(
//!         "bonuses",
//!         parse_pattern("IT-personnel//person/bonus").unwrap(),
//!     ))
//!     .unwrap();
//! let q = parse_pattern("IT-personnel//person/bonus[laptop]").unwrap();
//! let batch: Vec<_> = (0..16).map(|_| (doc, q.clone())).collect();
//! let answers = engine.answer_batch(&batch);
//! assert!(answers.iter().all(|a| a.is_ok()));
//! // Single-flight: 16 concurrent queries, one materialization.
//! assert_eq!(engine.stats().materializations, 1);
//! ```
//!
//! # Plan caching
//!
//! Planning is stateless over the registered views, so the engine caches
//! plans keyed by the query's canonical structural form
//! ([`pxv_tpq::TreePattern::canonical_key`]), the planning options, and
//! the *catalog epoch* — a counter bumped by [`Engine::register_view`]
//! and [`Engine::invalidate`], which also clear the cache. Two
//! structurally-equal queries plan once; hit/miss counters live in
//! [`EngineStats`]:
//!
//! ```
//! use pxv_engine::Engine;
//! use pxv_rewrite::View;
//! use pxv_tpq::parse::parse_pattern;
//!
//! let mut engine = Engine::new();
//! let doc = engine
//!     .add_document("d", pxv_pxml::text::parse_pdocument("a[b[c]]").unwrap())
//!     .unwrap();
//! engine.register_view(View::new("bs", parse_pattern("a/b").unwrap())).unwrap();
//! let q = parse_pattern("a/b[c]").unwrap();
//! engine.answer(doc, &q).unwrap();
//! engine.answer(doc, &q).unwrap();
//! assert_eq!(engine.stats().plan_cache_misses, 1); // planned once
//! assert_eq!(engine.stats().plan_cache_hits, 1);   // reused once
//! ```

#![deny(missing_docs)]

use pxv_obs::profile::QueryProfile;
use pxv_obs::ring::Ring;
use pxv_pxml::{NodeId, PDocument};
use pxv_rewrite::answer::{execute_tpi, plan_checked};
use pxv_rewrite::fr_tp::answer_tp;
use pxv_rewrite::view::ProbExtension;
// Re-exported so downstream layers (e.g. the TCP server) can register
// views and apply document edits without depending on `pxv-rewrite` /
// `pxv-pxml` directly.
pub use pxv_pxml::{Edit, EditEffect, EditError};
pub use pxv_rewrite::{DeltaOutcome, View};
use pxv_tpq::TreePattern;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

// Re-exported so callers can drive [`Engine::advise`] without depending
// on `pxv-advisor` directly.
pub use pxv_advisor::{AdviseOptions, AdvisorReport, CandidateReport, WorkloadQuery};
pub use pxv_rewrite::answer::{Plan, PlanError, PlanPreference, DEFAULT_INTERLEAVING_LIMIT};
pub use pxv_store::{ExtensionEntry, Snapshot, StoreError};

/// Number of cache shards in a [`Catalog`] (power of two). Sixteen shards
/// keep contention negligible for worker pools up to ~16 threads while the
/// per-shard maps stay dense.
pub const CATALOG_SHARDS: usize = 16;

/// Handle to a document registered with an [`Engine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(usize);

impl DocId {
    /// Position of the document in the engine's load order (also the
    /// `doc` index space of snapshot sections and
    /// [`EngineError::Section`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a view registered with a [`Catalog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(usize);

impl ViewId {
    /// Position of the view in [`Catalog::views`] (also the index space
    /// of [`Plan::referenced_views`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors reported by the engine (typed replacement for the `Option` /
/// `String` signaling of the pre-engine free functions).
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// A view with this name is already registered.
    DuplicateView(String),
    /// A document with this name is already registered.
    DuplicateDocument(String),
    /// The [`DocId`] does not belong to this engine.
    UnknownDocument(DocId),
    /// The document failed `PDocument::validate`.
    InvalidDocument(String),
    /// An [`Edit`] was rejected by structural validation
    /// ([`Engine::apply_edits`] mutates nothing when it reports this).
    Edit(EditError),
    /// No probabilistic rewriting exists and direct fallback is disabled.
    Plan(PlanError),
    /// The query has more nodes than evaluation supports
    /// ([`pxv_tpq::MAX_PATTERN_NODES`]); neither a plan nor direct
    /// evaluation is attempted.
    PatternTooLarge {
        /// Nodes in the query.
        nodes: usize,
        /// The most a query may have.
        max: usize,
    },
    /// A lazily restored extension section failed to decode or validate
    /// when a query first probed it (corrupt bytes, a bad checksum, or a
    /// document mismatch). Other sections keep serving; re-probing the
    /// damaged one reports this error again.
    Section {
        /// Document index of the failing section.
        doc: usize,
        /// View index of the failing section.
        view: usize,
        /// The underlying store-level failure.
        what: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DuplicateView(name) => write!(f, "view `{name}` already registered"),
            EngineError::DuplicateDocument(name) => {
                write!(f, "document `{name}` already registered")
            }
            EngineError::UnknownDocument(id) => write!(f, "unknown document id {:?}", id),
            EngineError::InvalidDocument(why) => write!(f, "invalid p-document: {why}"),
            EngineError::Edit(e) => write!(f, "edit rejected: {e}"),
            EngineError::Plan(e) => write!(f, "{e}"),
            EngineError::PatternTooLarge { nodes, max } => {
                write!(f, "query has {nodes} nodes; at most {max} are supported")
            }
            EngineError::Section { doc, view, what } => {
                write!(f, "lazy extension section (doc {doc}, view {view}): {what}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Refuses a query wider than evaluation supports, before planning or
/// direct evaluation sees it.
fn check_width(q: &TreePattern) -> Result<(), EngineError> {
    if q.len() > pxv_tpq::MAX_PATTERN_NODES {
        return Err(EngineError::PatternTooLarge {
            nodes: q.len(),
            max: pxv_tpq::MAX_PATTERN_NODES,
        });
    }
    Ok(())
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> EngineError {
        EngineError::Plan(e)
    }
}

impl From<EditError> for EngineError {
    fn from(e: EditError) -> EngineError {
        EngineError::Edit(e)
    }
}

/// What to do when no probabilistic rewriting over the catalog exists.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fallback {
    /// Report [`EngineError::Plan`] — the query is only answered if it can
    /// be answered from view extensions alone. The default: it keeps the
    /// "touch only materialized data" guarantee observable.
    #[default]
    Forbid,
    /// Evaluate directly over the original p-document (the answer's
    /// `plan` is `None` and no extension is touched).
    Direct,
}

/// Per-query knobs, built fluently:
///
/// ```
/// use pxv_engine::{Fallback, PlanPreference, QueryOptions};
/// let opts = QueryOptions::new()
///     .interleaving_limit(50_000)
///     .plan_preference(PlanPreference::PreferTpi)
///     .fallback(Fallback::Direct);
/// assert_eq!(opts.get_interleaving_limit(), 50_000);
/// ```
#[derive(Clone, Debug)]
pub struct QueryOptions {
    interleaving_limit: usize,
    preference: PlanPreference,
    fallback: Fallback,
    profile: bool,
    trace: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            interleaving_limit: DEFAULT_INTERLEAVING_LIMIT,
            preference: PlanPreference::default(),
            fallback: Fallback::default(),
            profile: false,
            trace: false,
        }
    }
}

impl QueryOptions {
    /// Options with all defaults ([`DEFAULT_INTERLEAVING_LIMIT`],
    /// [`PlanPreference::PreferTp`], [`Fallback::Forbid`]).
    pub fn new() -> QueryOptions {
        QueryOptions::default()
    }

    /// Bounds TPIrewrite's interleaving enumeration during TP∩
    /// equivalence tests.
    pub fn interleaving_limit(mut self, limit: usize) -> QueryOptions {
        self.interleaving_limit = limit;
        self
    }

    /// Which plan shapes to consider, in which order.
    pub fn plan_preference(mut self, preference: PlanPreference) -> QueryOptions {
        self.preference = preference;
        self
    }

    /// Behavior when no probabilistic rewriting exists.
    pub fn fallback(mut self, fallback: Fallback) -> QueryOptions {
        self.fallback = fallback;
        self
    }

    /// Whether to time each answering stage and attach a
    /// [`QueryProfile`] to the [`Answer`]. Off by default: the disabled
    /// path reads no clocks and leaves answers bit-identical to an
    /// uninstrumented run.
    pub fn profile(mut self, profile: bool) -> QueryOptions {
        self.profile = profile;
        self
    }

    /// The configured interleaving limit.
    pub fn get_interleaving_limit(&self) -> usize {
        self.interleaving_limit
    }

    /// The configured plan preference.
    pub fn get_plan_preference(&self) -> PlanPreference {
        self.preference
    }

    /// The configured fallback policy.
    pub fn get_fallback(&self) -> Fallback {
        self.fallback
    }

    /// Whether stage profiling is enabled.
    pub fn get_profile(&self) -> bool {
        self.profile
    }

    /// Whether to capture the query's causal span tree and return it
    /// with the answer. The engine itself only carries the flag — span
    /// capture is driven by the ambient
    /// [`pxv_obs::trace::TraceContext`] the caller (typically the
    /// server) installs around the query. Off by default, and like
    /// profiling the disabled path reads no clocks and leaves answers
    /// bit-identical.
    pub fn trace(mut self, trace: bool) -> QueryOptions {
        self.trace = trace;
        self
    }

    /// Whether span-tree capture was requested.
    pub fn get_trace(&self) -> bool {
        self.trace
    }
}

/// Counters describing how one query was executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Distinct extensions the plan read (0 for direct evaluation).
    pub extensions_touched: usize,
    /// How many of those were served from the catalog's cache (including
    /// single-flight waits on a materialization another query started).
    pub cache_hits: usize,
    /// How many this query materialized itself
    /// (`extensions_touched = cache_hits + materializations`).
    pub materializations: usize,
    /// Candidate answer nodes considered before probability filtering.
    pub candidates: usize,
}

/// The result of [`Engine::answer`]: answers, the route taken, and
/// per-query execution stats.
#[derive(Clone, Debug)]
pub struct Answer {
    /// `(node, probability)` pairs with positive probability, sorted by
    /// node id.
    pub nodes: Vec<(NodeId, f64)>,
    /// The chosen rewriting; `None` when the query was answered by direct
    /// evaluation (fallback or [`Engine::answer_direct`]).
    pub plan: Option<Plan>,
    /// Human-readable description of the route (plan shape and views).
    pub description: String,
    /// Execution counters.
    pub stats: QueryStats,
    /// Stage timing breakdown, present iff the query ran with
    /// [`QueryOptions::profile`]`(true)`.
    pub profile: Option<QueryProfile>,
}

impl Answer {
    /// Whether this answer came from view extensions (a plan) rather than
    /// direct evaluation.
    pub fn from_views(&self) -> bool {
        self.plan.is_some()
    }
}

/// Lifetime counters for an [`Engine`] (monotone; never reset — per-document
/// cache counters that *are* reset by invalidation live in [`DocStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered (including direct fallbacks).
    pub queries: u64,
    /// Queries answered through a single-view TP plan.
    pub plans_tp: u64,
    /// Queries answered through a TP∩ plan.
    pub plans_tpi: u64,
    /// Queries answered by direct evaluation.
    pub direct: u64,
    /// Extensions materialized since the engine was created.
    pub materializations: u64,
    /// Extension reads served from cache.
    pub cache_hits: u64,
    /// Cache invalidations ([`Engine::invalidate`] /
    /// [`Engine::replace_document`]) that evicted at least one extension.
    pub invalidations: u64,
    /// Plans (or typed plan failures) served from the plan cache.
    pub plan_cache_hits: u64,
    /// Queries whose plan had to be computed (first sighting of a
    /// canonical query under the current catalog epoch and options).
    pub plan_cache_misses: u64,
    /// Document edits applied through [`Engine::apply_edits`].
    pub edits_applied: u64,
    /// Per-(edit, cached extension) maintenance steps serviced by the
    /// incremental delta path (stored probabilities reused where the
    /// edit's scope test allowed).
    pub deltas_applied: u64,
    /// Maintenance steps that fell back to full rematerialization (the
    /// edit touched a region the view could not localize).
    pub delta_fallbacks: u64,
    /// Current bytes held by the extension cache (a gauge, not a
    /// monotone counter: sampled from the catalog at snapshot time).
    pub cache_bytes: u64,
    /// Extensions evicted by byte-budget enforcement (invalidations and
    /// update-path replacements are counted separately).
    pub evictions: u64,
    /// Freshly materialized extensions the budget refused to admit (the
    /// querying thread still got its answer from the private handle; the
    /// extension just never entered the shared cache).
    pub admission_rejects: u64,
    /// Lazily restored snapshot sections decoded on first probe (each
    /// counts once; subsequent probes of the section are cache hits).
    pub sections_faulted: u64,
    /// Total nanoseconds spent decoding lazily faulted sections.
    pub lazy_decode_ns: u64,
}

/// Per-document cache counters. Unlike [`EngineStats`] these describe the
/// *current* cache generation: [`Engine::invalidate`] resets them along
/// with the document's cached extensions, so a warm-looking document never
/// carries counters from extensions that no longer exist.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DocStats {
    /// Extensions materialized for this document since its last
    /// invalidation (or registration).
    pub materializations: u64,
    /// Cache hits served for this document since its last invalidation.
    pub cache_hits: u64,
}

/// Interior-mutability counterparts of the public stats structs, so every
/// query path can take `&self`.
#[derive(Debug, Default)]
struct AtomicEngineStats {
    queries: AtomicU64,
    plans_tp: AtomicU64,
    plans_tpi: AtomicU64,
    direct: AtomicU64,
    materializations: AtomicU64,
    cache_hits: AtomicU64,
    invalidations: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    edits_applied: AtomicU64,
    deltas_applied: AtomicU64,
    delta_fallbacks: AtomicU64,
}

impl AtomicEngineStats {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            plans_tp: self.plans_tp.load(Ordering::Relaxed),
            plans_tpi: self.plans_tpi.load(Ordering::Relaxed),
            direct: self.direct.load(Ordering::Relaxed),
            materializations: self.materializations.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            edits_applied: self.edits_applied.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            delta_fallbacks: self.delta_fallbacks.load(Ordering::Relaxed),
            // Budget and lazy-restore counters live in the catalog;
            // Engine::stats() fills them in after taking this snapshot.
            cache_bytes: 0,
            evictions: 0,
            admission_rejects: 0,
            sections_faulted: 0,
            lazy_decode_ns: 0,
        }
    }

    fn restore(snapshot: EngineStats) -> AtomicEngineStats {
        AtomicEngineStats {
            queries: AtomicU64::new(snapshot.queries),
            plans_tp: AtomicU64::new(snapshot.plans_tp),
            plans_tpi: AtomicU64::new(snapshot.plans_tpi),
            direct: AtomicU64::new(snapshot.direct),
            materializations: AtomicU64::new(snapshot.materializations),
            cache_hits: AtomicU64::new(snapshot.cache_hits),
            invalidations: AtomicU64::new(snapshot.invalidations),
            plan_cache_hits: AtomicU64::new(snapshot.plan_cache_hits),
            plan_cache_misses: AtomicU64::new(snapshot.plan_cache_misses),
            edits_applied: AtomicU64::new(snapshot.edits_applied),
            deltas_applied: AtomicU64::new(snapshot.deltas_applied),
            delta_fallbacks: AtomicU64::new(snapshot.delta_fallbacks),
        }
    }
}

#[derive(Debug, Default)]
struct AtomicDocStats {
    materializations: AtomicU64,
    cache_hits: AtomicU64,
}

impl AtomicDocStats {
    fn snapshot(&self) -> DocStats {
        DocStats {
            materializations: self.materializations.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }
}

/// One cache entry. The outer `Arc` lets a reader leave the shard lock
/// before touching the `OnceLock`; the `OnceLock` provides single-flight
/// materialization (`get_or_init` runs the closure in exactly one thread,
/// everyone else blocks and shares the value); the inner `Arc` is the
/// immutable extension handed to plan execution.
type ExtensionSlot = Arc<OnceLock<Arc<ProbExtension>>>;

/// Byte-accounting state of one slot (see [`SlotMeta::acct`]): the
/// materialization has not charged the gauge yet.
const ACCT_PENDING: u8 = 0;
/// The slot's bytes are counted in [`Catalog::cache_bytes`].
const ACCT_CHARGED: u8 = 1;
/// The slot left the cache (evicted, invalidated, replaced, or rejected);
/// its bytes are not (or no longer) counted.
const ACCT_RETIRED: u8 = 2;

/// Cost/benefit bookkeeping of one cache slot. `bytes` and
/// `rebuild_nanos` are written once when the materialization completes;
/// `hits` counts every read served from the completed slot (the benefit
/// side of the eviction score); `acct` is a tiny state machine that keeps
/// the byte gauge exact while concurrent queries charge and evict: a slot
/// is charged at most once (`PENDING → CHARGED`) and released at most
/// once (`→ RETIRED`), so bytes are never double-charged or
/// double-released.
#[derive(Debug, Default)]
struct SlotMeta {
    bytes: AtomicU64,
    rebuild_nanos: AtomicU64,
    hits: AtomicU64,
    acct: AtomicU8,
}

impl SlotMeta {
    /// The eviction score: benefit (hits so far, plus one so a fresh
    /// entry is not instantly worthless) times cost (observed rebuild
    /// time) per byte held. Higher is more worth keeping.
    fn score(&self) -> f64 {
        let hits = self.hits.load(Ordering::Relaxed);
        let nanos = self.rebuild_nanos.load(Ordering::Relaxed).max(1);
        let bytes = self.bytes.load(Ordering::Relaxed).max(1);
        (hits + 1) as f64 * nanos as f64 / bytes as f64
    }
}

/// An undecoded snapshot section backing a lazily restored cache entry:
/// the byte range to fault in, the view to decode it against, and a
/// single-flight mutex so two racing queries decode the section once.
/// (A `OnceLock` closure cannot fail, and a corrupt section must report
/// a typed error on *every* probe — hence a mutex, not `get_or_init`.)
#[derive(Debug)]
struct PendingBody {
    section: pxv_store::ExtSectionRef,
    view: View,
    flight: Mutex<()>,
}

/// Map value of the sharded cache: the single-flight slot plus its
/// cost/benefit metadata, and — for lazily restored entries — the
/// snapshot section the slot decodes from on first probe.
#[derive(Clone, Debug, Default)]
struct CacheEntry {
    slot: ExtensionSlot,
    meta: Arc<SlotMeta>,
    pending: Option<Arc<PendingBody>>,
}

/// How [`Catalog::extension`] satisfied a probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Probe {
    /// Served from the completed cache (including single-flight waits).
    Hit,
    /// This probe materialized the extension from the document.
    Materialized,
    /// This probe decoded a pending snapshot section (lazy restore).
    Faulted,
}

/// One entry of the catalog's eviction log: which `(document, view)`
/// extension was dropped by budget enforcement and the score components
/// that condemned it.
#[derive(Clone, Debug)]
pub struct EvictionRecord {
    /// Document index of the evicted extension.
    pub doc: usize,
    /// View index of the evicted extension.
    pub view: usize,
    /// Heap bytes the eviction released.
    pub bytes: u64,
    /// Cache hits the entry had served.
    pub hits: u64,
    /// Observed cost of the entry's materialization, in nanoseconds.
    pub rebuild_nanos: u64,
    /// The cost/benefit score at eviction time (lowest in cache).
    pub score: f64,
    /// True when the victim was the entry whose own admission triggered
    /// enforcement — an admission reject rather than an eviction.
    pub admission_reject: bool,
}

/// Bound on the in-memory eviction log (oldest records are dropped).
pub const EVICTION_LOG_CAPACITY: usize = 256;

/// A named set of views plus the memoized extensions materialized from
/// them, keyed per document and sharded for concurrent access.
///
/// The cache is **byte-budgeted**: every completed slot is charged its
/// [`ProbExtension::heap_bytes`] footprint against a configurable budget
/// (default unbounded), and enforcement evicts the lowest cost/benefit
/// score — `(hits + 1) × rebuild_nanos / bytes` — until the gauge fits.
/// A freshly materialized extension that is itself the lowest-value slot
/// is *rejected* instead of admitted (the querying thread keeps its
/// private handle; the shared cache stays within budget).
#[derive(Debug)]
pub struct Catalog {
    views: Vec<View>,
    by_name: HashMap<String, usize>,
    /// `(document, view) →` materialized extension, split across
    /// [`CATALOG_SHARDS`] locks by key hash so concurrent queries touching
    /// different extensions never serialize on one mutex.
    shards: Vec<RwLock<HashMap<(usize, usize), CacheEntry>>>,
    /// Byte budget; `u64::MAX` means unbounded.
    budget: u64,
    /// Bytes currently charged by completed, admitted slots.
    bytes: AtomicU64,
    /// Budget-driven evictions (lifetime).
    evictions: AtomicU64,
    /// Admissions refused at materialization time (lifetime).
    admission_rejects: AtomicU64,
    /// Most recent eviction/rejection records, newest last (bounded ring:
    /// overflow drops the oldest record and is counted).
    eviction_log: Mutex<Ring<EvictionRecord>>,
    /// Pending snapshot sections decoded on first probe (lifetime).
    sections_faulted: AtomicU64,
    /// Nanoseconds spent decoding faulted sections (lifetime).
    lazy_decode_nanos: AtomicU64,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog {
            views: Vec::new(),
            by_name: HashMap::new(),
            shards: (0..CATALOG_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            budget: u64::MAX,
            bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
            eviction_log: Mutex::new(Ring::new(EVICTION_LOG_CAPACITY)),
            sections_faulted: AtomicU64::new(0),
            lazy_decode_nanos: AtomicU64::new(0),
        }
    }
}

impl Clone for Catalog {
    /// Clones the views, the *completed* cache entries (extensions are
    /// immutable, so clones share them through `Arc`), and any **pending**
    /// lazily restored sections (the clone shares the slot and the
    /// encoded body, so a section decoded in either generation is decoded
    /// once; the clone charges its byte gauge on first observation).
    /// Entries whose materialization is still in flight in another thread
    /// are skipped. Budget, counters and the eviction log are copied by
    /// value; the clone's byte gauge is recomputed from the entries it
    /// actually kept.
    fn clone(&self) -> Catalog {
        let mut bytes = 0u64;
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let map = shard.read().unwrap_or_else(PoisonError::into_inner);
                RwLock::new(
                    map.iter()
                        .filter_map(|(&k, entry)| {
                            let acct = entry.meta.acct.load(Ordering::Relaxed);
                            if entry.slot.get().is_some() && acct == ACCT_CHARGED {
                                let b = entry.meta.bytes.load(Ordering::Relaxed);
                                bytes += b;
                                let meta = SlotMeta {
                                    bytes: AtomicU64::new(b),
                                    rebuild_nanos: AtomicU64::new(
                                        entry.meta.rebuild_nanos.load(Ordering::Relaxed),
                                    ),
                                    hits: AtomicU64::new(entry.meta.hits.load(Ordering::Relaxed)),
                                    acct: AtomicU8::new(ACCT_CHARGED),
                                };
                                Some((
                                    k,
                                    CacheEntry {
                                        slot: Arc::clone(&entry.slot),
                                        meta: Arc::new(meta),
                                        pending: None,
                                    },
                                ))
                            } else if entry.pending.is_some() && acct != ACCT_RETIRED {
                                // A lazily restored section not yet charged
                                // here: keep it pending (an UPDATE after a
                                // lazy restore must not silently drop the
                                // still-encoded warm state).
                                let meta = SlotMeta {
                                    bytes: AtomicU64::new(0),
                                    rebuild_nanos: AtomicU64::new(
                                        entry.meta.rebuild_nanos.load(Ordering::Relaxed),
                                    ),
                                    hits: AtomicU64::new(entry.meta.hits.load(Ordering::Relaxed)),
                                    acct: AtomicU8::new(ACCT_PENDING),
                                };
                                Some((
                                    k,
                                    CacheEntry {
                                        slot: Arc::clone(&entry.slot),
                                        meta: Arc::new(meta),
                                        pending: entry.pending.clone(),
                                    },
                                ))
                            } else {
                                None
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        Catalog {
            views: self.views.clone(),
            by_name: self.by_name.clone(),
            shards,
            budget: self.budget,
            bytes: AtomicU64::new(bytes),
            evictions: AtomicU64::new(self.evictions.load(Ordering::Relaxed)),
            admission_rejects: AtomicU64::new(self.admission_rejects.load(Ordering::Relaxed)),
            eviction_log: Mutex::new(
                self.eviction_log
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
            sections_faulted: AtomicU64::new(self.sections_faulted.load(Ordering::Relaxed)),
            lazy_decode_nanos: AtomicU64::new(self.lazy_decode_nanos.load(Ordering::Relaxed)),
        }
    }
}

fn shard_index(key: (usize, usize)) -> usize {
    // Fibonacci hashing of the combined key; documents and views are
    // small dense indices, so this spreads consecutive ids well.
    let combined = (key.0 as u64) << 32 | (key.1 as u64 & 0xffff_ffff);
    (combined.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize % CATALOG_SHARDS
}

/// Whether every original-node reference of a restored extension — each
/// result root and each `Id(·)` entry — names a node of `pdoc` with the
/// same label. Both restore paths run it before serving an extension.
fn extension_matches(ext: &ProbExtension, pdoc: &PDocument) -> bool {
    let consistent = |ext_node: NodeId, orig: NodeId| {
        pdoc.contains(orig) && pdoc.label(orig) == ext.pdoc.label(ext_node)
    };
    ext.results.iter().all(|r| consistent(r.ext_root, r.orig))
        && ext.orig_entries().all(|(e, o)| consistent(e, o))
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a view; names must be unique within the catalog.
    pub fn register(&mut self, view: View) -> Result<ViewId, EngineError> {
        if self.by_name.contains_key(&view.name) {
            return Err(EngineError::DuplicateView(view.name.clone()));
        }
        let id = ViewId(self.views.len());
        self.by_name.insert(view.name.clone(), id.0);
        self.views.push(view);
        Ok(id)
    }

    /// The registered views, in registration order.
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the catalog has no views.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The view behind a handle.
    pub fn view(&self, id: ViewId) -> &View {
        &self.views[id.0]
    }

    /// Looks a view up by name.
    pub fn find(&self, name: &str) -> Option<ViewId> {
        self.by_name.get(name).copied().map(ViewId)
    }

    /// Number of extensions currently cached (fully materialized) for
    /// `doc`.
    pub fn cached_extensions(&self, doc: DocId) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .filter(|(&(d, _), entry)| d == doc.0 && entry.slot.get().is_some())
                    .count()
            })
            .sum()
    }

    /// The configured byte budget (`u64::MAX` = unbounded).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Sets the byte budget and immediately enforces it (shrinking the
    /// budget under a warm cache evicts the lowest-score extensions until
    /// the gauge fits).
    pub fn set_budget(&mut self, bytes: u64) {
        self.budget = bytes;
        self.enforce_budget(None);
    }

    /// Bytes currently held by completed, admitted extensions.
    pub fn cache_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Lifetime count of budget-driven evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lifetime count of refused admissions.
    pub fn admission_rejects(&self) -> u64 {
        self.admission_rejects.load(Ordering::Relaxed)
    }

    /// Lifetime count of pending snapshot sections decoded on first
    /// probe (lazy restore faults).
    pub fn sections_faulted(&self) -> u64 {
        self.sections_faulted.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent decoding faulted sections.
    pub fn lazy_decode_nanos(&self) -> u64 {
        self.lazy_decode_nanos.load(Ordering::Relaxed)
    }

    /// The most recent eviction/rejection records, oldest first (bounded
    /// by [`EVICTION_LOG_CAPACITY`]).
    pub fn eviction_log(&self) -> Vec<EvictionRecord> {
        self.eviction_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Releases an entry's byte charge exactly once (the
    /// `PENDING/CHARGED → RETIRED` transition). Returns the bytes
    /// released, 0 when the entry was never charged.
    fn retire(&self, entry: &CacheEntry) -> u64 {
        if entry
            .meta
            .acct
            .compare_exchange(
                ACCT_CHARGED,
                ACCT_RETIRED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            let released = entry.meta.bytes.load(Ordering::Relaxed);
            self.bytes.fetch_sub(released, Ordering::Relaxed);
            released
        } else {
            // PENDING → RETIRED: never charged, nothing to release.
            entry.meta.acct.store(ACCT_RETIRED, Ordering::Release);
            0
        }
    }

    /// Appends to the bounded eviction log.
    fn log_eviction(&self, record: EvictionRecord) {
        self.eviction_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }

    /// Evicts lowest-score entries until the byte gauge fits the budget.
    /// `newest` marks the entry whose admission triggered enforcement: if
    /// it is chosen as a victim its removal counts as an *admission
    /// reject* rather than an eviction. Victim selection is a racy scan
    /// (shard read locks only); the removal re-checks identity under the
    /// shard write lock, so a concurrently replaced slot is never
    /// mis-evicted.
    fn enforce_budget(&self, newest: Option<(usize, usize)>) {
        loop {
            if self.bytes.load(Ordering::Relaxed) <= self.budget {
                return;
            }
            // Lowest score loses; ties break on the larger key so the
            // scan is deterministic under equal scores.
            let mut victim: Option<((usize, usize), f64)> = None;
            for shard in &self.shards {
                let map = shard.read().unwrap_or_else(PoisonError::into_inner);
                for (&k, entry) in map.iter() {
                    if entry.meta.acct.load(Ordering::Relaxed) != ACCT_CHARGED {
                        continue;
                    }
                    let s = entry.meta.score();
                    let beats = match victim {
                        None => true,
                        Some((bk, bs)) => s < bs || (s == bs && k > bk),
                    };
                    if beats {
                        victim = Some((k, s));
                    }
                }
            }
            let Some((key, score)) = victim else {
                // Nothing evictable (all charged entries raced away);
                // give up rather than spin.
                return;
            };
            let removed = {
                let mut map = self.shards[shard_index(key)]
                    .write()
                    .unwrap_or_else(PoisonError::into_inner);
                match map.get(&key) {
                    Some(entry) if entry.meta.acct.load(Ordering::Relaxed) == ACCT_CHARGED => {
                        map.remove(&key)
                    }
                    _ => None, // replaced or already gone; rescan
                }
            };
            if let Some(entry) = removed {
                let released = self.retire(&entry);
                if released > 0 {
                    let admission_reject = newest == Some(key);
                    if admission_reject {
                        self.admission_rejects.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    self.log_eviction(EvictionRecord {
                        doc: key.0,
                        view: key.1,
                        bytes: released,
                        hits: entry.meta.hits.load(Ordering::Relaxed),
                        rebuild_nanos: entry.meta.rebuild_nanos.load(Ordering::Relaxed),
                        score,
                        admission_reject,
                    });
                }
            }
        }
    }

    /// Drops every cached extension of `doc` (call after replacing the
    /// document's content). Returns how many materialized extensions were
    /// evicted. Prefer [`Engine::invalidate`], which also resets the
    /// document's [`DocStats`] counters.
    pub fn invalidate(&mut self, doc: DocId) -> usize {
        let mut removed = Vec::new();
        for shard in &mut self.shards {
            shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .retain(|&(d, _), entry| {
                    if d == doc.0 {
                        removed.push(entry.clone());
                    }
                    d != doc.0
                });
        }
        for entry in &removed {
            self.retire(entry);
        }
        removed.iter().filter(|e| e.slot.get().is_some()).count()
    }

    /// Every cache entry a snapshot should persist, as `(doc index, view
    /// index, extension, hits, rebuild nanos)`, sorted by key. Completed
    /// entries are taken as-is; **pending** lazily restored sections are
    /// decoded transiently (the cache itself is not mutated) so a
    /// re-save after a lazy restore keeps the never-probed warm state —
    /// a section whose bytes turn out corrupt is skipped, keeping the
    /// save total. In-flight materializations are skipped, exactly like
    /// [`Catalog::clone`] skips them.
    #[allow(clippy::type_complexity)]
    fn completed_entries(&self) -> Vec<(usize, usize, Arc<ProbExtension>, u64, u64)> {
        let mut out: Vec<(usize, usize, Arc<ProbExtension>, u64, u64)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let map = shard.read().unwrap_or_else(PoisonError::into_inner);
                map.iter()
                    .filter_map(|(&(d, v), entry)| {
                        let ext = match entry.slot.get() {
                            Some(ext) => Arc::clone(ext),
                            None => {
                                let pending = entry.pending.as_ref()?;
                                let _flight = pending
                                    .flight
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner);
                                match entry.slot.get() {
                                    Some(ext) => Arc::clone(ext),
                                    None => {
                                        Arc::new(pending.section.decode(pending.view.clone()).ok()?)
                                    }
                                }
                            }
                        };
                        Some((
                            d,
                            v,
                            ext,
                            entry.meta.hits.load(Ordering::Relaxed),
                            entry.meta.rebuild_nanos.load(Ordering::Relaxed),
                        ))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|&(d, v, ..)| (d, v));
        out
    }

    /// Installs an already-materialized extension as a completed cache
    /// entry, replacing whatever the slot held (snapshot restore, and the
    /// commit step of [`Engine::apply_edits`]). The entry is charged its
    /// measured footprint immediately; `rebuild_nanos`/`hits` seed the
    /// eviction score (carried over from the replaced generation or a
    /// snapshot). The caller guarantees the indices are in range and runs
    /// budget enforcement after its batch of installs.
    fn install_entry(
        &mut self,
        doc: usize,
        view: usize,
        ext: Arc<ProbExtension>,
        rebuild_nanos: u64,
        hits: u64,
    ) {
        let key = (doc, view);
        let slot: ExtensionSlot = Arc::new(OnceLock::new());
        let bytes = ext.heap_bytes() as u64;
        slot.set(ext).expect("fresh OnceLock");
        let entry = CacheEntry {
            slot,
            meta: Arc::new(SlotMeta {
                bytes: AtomicU64::new(bytes),
                rebuild_nanos: AtomicU64::new(rebuild_nanos),
                hits: AtomicU64::new(hits),
                acct: AtomicU8::new(ACCT_CHARGED),
            }),
            pending: None,
        };
        let replaced = self.shards[shard_index(key)]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, entry);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(old) = replaced {
            self.retire(&old);
        }
    }

    /// Installs an **undecoded** snapshot section as a pending cache
    /// entry (lazy restore): the slot stays empty and the encoded body
    /// rides along, to be decoded — single-flight — on first probe.
    /// Nothing is charged to the byte gauge until the fault completes.
    /// The caller guarantees the indices are in range.
    fn install_pending(
        &mut self,
        doc: usize,
        view: usize,
        section: pxv_store::ExtSectionRef,
        rebuild_nanos: u64,
        hits: u64,
    ) {
        let key = (doc, view);
        let entry = CacheEntry {
            slot: Arc::new(OnceLock::new()),
            meta: Arc::new(SlotMeta {
                bytes: AtomicU64::new(0),
                rebuild_nanos: AtomicU64::new(rebuild_nanos),
                hits: AtomicU64::new(hits),
                acct: AtomicU8::new(ACCT_PENDING),
            }),
            pending: Some(Arc::new(PendingBody {
                section,
                view: self.views[view].clone(),
                flight: Mutex::new(()),
            })),
        };
        let replaced = self.shards[shard_index(key)]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, entry);
        if let Some(old) = replaced {
            self.retire(&old);
        }
    }

    /// Every *completed* cached extension of `doc` as `(view index,
    /// extension, hits, rebuild nanos)`, sorted by view index — the set
    /// the update path maintains across an edit.
    fn completed_for(&self, doc: usize) -> Vec<(usize, Arc<ProbExtension>, u64, u64)> {
        let mut out: Vec<(usize, Arc<ProbExtension>, u64, u64)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let map = shard.read().unwrap_or_else(PoisonError::into_inner);
                map.iter()
                    .filter(|(&(d, _), _)| d == doc)
                    .filter_map(|(&(_, v), entry)| {
                        entry.slot.get().map(|ext| {
                            (
                                v,
                                Arc::clone(ext),
                                entry.meta.hits.load(Ordering::Relaxed),
                                entry.meta.rebuild_nanos.load(Ordering::Relaxed),
                            )
                        })
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|&(v, ..)| v);
        out
    }

    /// The memoized extension of view `view_idx` over `pdoc` (document
    /// `doc`'s content); materializes on first use. Returns the extension
    /// and whether it was a cache hit (single-flight waiters count as
    /// hits — they did not materialize).
    ///
    /// A completing materialization charges its measured footprint to the
    /// byte gauge and then runs budget enforcement, which may immediately
    /// reject the new entry itself (as may a concurrent query's
    /// enforcement, which can evict any charged slot). Either way the caller keeps the returned `Arc`: budget pressure
    /// affects what the *shared* cache retains, never the answer.
    fn extension(
        &self,
        doc: usize,
        pdoc: &PDocument,
        view_idx: usize,
    ) -> Result<(Arc<ProbExtension>, Probe), EngineError> {
        let key = (doc, view_idx);
        let shard = &self.shards[shard_index(key)];
        let entry: CacheEntry = {
            let map = shard.read().unwrap_or_else(PoisonError::into_inner);
            map.get(&key).cloned()
        }
        .unwrap_or_else(|| {
            let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
            map.entry(key).or_default().clone()
        });
        // Lazily restored entries decode their snapshot section on first
        // probe instead of materializing from the document.
        if let Some(pending) = entry.pending.clone() {
            return self.fault_section(key, &entry, &pending, pdoc);
        }
        // Single-flight: get_or_init runs the closure in exactly one
        // thread; racing threads block here and share the result, so the
        // same extension is never materialized twice.
        let mut materialized = false;
        let ext = Arc::clone(entry.slot.get_or_init(|| {
            materialized = true;
            let start = Instant::now();
            let built = Arc::new(ProbExtension::materialize(pdoc, &self.views[view_idx]));
            entry
                .meta
                .rebuild_nanos
                .store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            built
        }));
        if materialized {
            entry
                .meta
                .bytes
                .store(ext.heap_bytes() as u64, Ordering::Relaxed);
            self.charge(key, &entry);
        } else {
            entry.meta.hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok((
            ext,
            if materialized {
                Probe::Materialized
            } else {
                Probe::Hit
            },
        ))
    }

    /// Charges a slot's measured bytes to the gauge exactly once
    /// (`PENDING → CHARGED`: of two probes racing to charge one faulted
    /// slot, one wins) and then enforces the budget, which may
    /// immediately reject the entry itself.
    fn charge(&self, key: (usize, usize), entry: &CacheEntry) {
        let charged = entry
            .meta
            .acct
            .compare_exchange(
                ACCT_PENDING,
                ACCT_CHARGED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if charged {
            self.bytes
                .fetch_add(entry.meta.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
            self.enforce_budget(Some(key));
        }
    }

    /// The fault path of a lazily restored entry: decode the pending
    /// snapshot section (single-flight behind the body's mutex), validate
    /// it against the live document, publish it into the slot and charge
    /// the byte gauge. A section already decoded — here, or in the
    /// catalog generation this entry was cloned from — is a plain hit,
    /// charged on first observation. Corrupt or inconsistent bytes are a
    /// typed [`EngineError::Section`] on every probe; other sections keep
    /// serving.
    fn fault_section(
        &self,
        key: (usize, usize),
        entry: &CacheEntry,
        pending: &PendingBody,
        pdoc: &PDocument,
    ) -> Result<(Arc<ProbExtension>, Probe), EngineError> {
        let hit = |ext: &Arc<ProbExtension>| {
            if entry.meta.acct.load(Ordering::Relaxed) == ACCT_PENDING {
                entry
                    .meta
                    .bytes
                    .store(ext.heap_bytes() as u64, Ordering::Relaxed);
                self.charge(key, entry);
            }
            entry.meta.hits.fetch_add(1, Ordering::Relaxed);
            (Arc::clone(ext), Probe::Hit)
        };
        if let Some(ext) = entry.slot.get() {
            return Ok(hit(ext));
        }
        let flight = pending
            .flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(ext) = entry.slot.get() {
            // Raced with another query's fault of the same section:
            // single-flight turned this probe into a hit.
            return Ok(hit(ext));
        }
        let section_err = |what: String| EngineError::Section {
            doc: key.0,
            view: key.1,
            what,
        };
        let start = Instant::now();
        let ext = pending
            .section
            .decode(pending.view.clone())
            .map_err(|e| section_err(e.to_string()))?;
        // The eager restore path cross-checks every original-node
        // reference against the target document before serving; the lazy
        // path runs exactly that check at fault time.
        if !extension_matches(&ext, pdoc) {
            return Err(section_err(format!(
                "extension of view `{}` does not match document {}",
                pending.view.name, key.0
            )));
        }
        let nanos = start.elapsed().as_nanos() as u64;
        let ext = Arc::new(ext);
        entry
            .meta
            .bytes
            .store(ext.heap_bytes() as u64, Ordering::Relaxed);
        // rebuild_nanos keeps the saved materialization cost — the
        // eviction score should reflect what a *rebuild* costs, which a
        // cheap decode does not measure. Decode time is counted apart.
        let _ = entry.slot.set(Arc::clone(&ext));
        drop(flight);
        self.charge(key, entry);
        self.sections_faulted.fetch_add(1, Ordering::Relaxed);
        self.lazy_decode_nanos.fetch_add(nanos, Ordering::Relaxed);
        Ok((ext, Probe::Faulted))
    }
}

/// Key of one plan-cache entry: the canonical structural form of the
/// query plus every planning knob the plan depends on. The catalog epoch
/// is part of the key so an entry can never outlive the view set it was
/// planned against (the cache is also cleared whenever the epoch bumps).
/// `Ord` gives LRU eviction a deterministic tie-break when two entries
/// share a recency tick.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct PlanKey {
    query: String,
    epoch: u64,
    interleaving_limit: usize,
    preference: u8,
}

impl PlanKey {
    fn new(q: &TreePattern, epoch: u64, options: &QueryOptions) -> PlanKey {
        PlanKey {
            query: q.canonical_key(),
            epoch,
            interleaving_limit: options.interleaving_limit,
            // PlanPreference has no Hash impl; a stable discriminant does.
            preference: match options.preference {
                PlanPreference::PreferTp => 0,
                PlanPreference::PreferTpi => 1,
                PlanPreference::TpOnly => 2,
                PlanPreference::TpiOnly => 3,
            },
        }
    }
}

/// What one [`Engine::apply_edits`] call did (per-call view of the
/// lifetime `edits_applied` / `deltas_applied` / `delta_fallbacks`
/// counters in [`EngineStats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Edits applied (the whole input sequence, or 0 on the empty one).
    pub edits: usize,
    /// Maintenance steps — one per (edit, cached extension) pair —
    /// serviced incrementally.
    pub deltas_applied: u64,
    /// Maintenance steps that fell back to full rematerialization.
    pub delta_fallbacks: u64,
    /// Cached extensions carried warm across the edit sequence.
    pub extensions_maintained: usize,
    /// Fresh ids assigned to [`Edit::InsertSubtree`] roots, in edit
    /// order.
    pub inserted_roots: Vec<NodeId>,
}

/// One memoized planner outcome plus its recency tick (for LRU
/// eviction). Negative results are cached too, so a hot unanswerable
/// query does not re-run TPIrewrite on every arrival.
#[derive(Debug)]
struct PlanEntry {
    plan: Arc<Result<Plan, PlanError>>,
    last_used: AtomicU64,
}

type PlanCache = RwLock<HashMap<PlanKey, PlanEntry>>;

/// Drops the `n` least-recently-used plans (ties break on the key).
fn drop_lru(map: &mut HashMap<PlanKey, PlanEntry>, n: usize) {
    if n == 0 {
        return;
    }
    let mut ticks: Vec<(u64, PlanKey)> = map
        .iter()
        .map(|(k, e)| (e.last_used.load(Ordering::Relaxed), k.clone()))
        .collect();
    ticks.sort();
    for (_, victim) in ticks.into_iter().take(n) {
        map.remove(&victim);
    }
}

/// Default upper bound on cached plans
/// ([`Engine::set_plan_cache_capacity`] overrides it at runtime). Keys
/// are client-controlled (every distinct canonical query × options is
/// one entry), so a serving deployment streaming unique queries must not
/// grow the map without limit; at the cap the least-recently-used
/// entries are evicted — at least an eighth of the cache at a time, so a
/// full cache is not rescanned on every subsequent miss.
pub const PLAN_CACHE_CAPACITY: usize = 4096;

/// Upper bound on distinct queries retained in the workload log that
/// feeds [`Engine::advise`]. At the cap the least-recently-seen entry is
/// dropped; counts of retained entries keep accumulating, so the hot
/// tail of the workload survives indefinitely while one-off queries age
/// out.
pub const QUERY_LOG_CAPACITY: usize = 1024;

/// One retained workload entry: the (minimized) query, how many times it
/// was seen, and a recency tick for bounded-ring eviction.
#[derive(Clone, Debug)]
struct LogSlot {
    pattern: TreePattern,
    count: u64,
    last_seen: u64,
}

/// The bounded query-frequency log, keyed by `(doc, canonical form)`.
#[derive(Clone, Debug, Default)]
struct QueryLog {
    entries: HashMap<(usize, String), LogSlot>,
    tick: u64,
}

impl QueryLog {
    fn record(&mut self, doc: usize, pattern: &TreePattern, count: u64) {
        self.tick += 1;
        let tick = self.tick;
        let key = (doc, pattern.canonical_key());
        if let Some(slot) = self.entries.get_mut(&key) {
            slot.count += count;
            slot.last_seen = tick;
            return;
        }
        if self.entries.len() >= QUERY_LOG_CAPACITY {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(k, slot)| (slot.last_seen, (k.0, k.1.clone())))
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            key,
            LogSlot {
                pattern: pattern.clone(),
                count,
                last_seen: tick,
            },
        );
    }
}

/// The stateful query-answering engine (see the module docs for a tour).
///
/// One write discipline: every mutation of documents, views, the cache
/// budget, the plan-cache capacity or the catalog epoch takes
/// `&mut self` (`add_document`, `register_view`, [`Engine::apply_edits`],
/// [`Engine::invalidate`], [`Engine::replace_document`],
/// [`Engine::set_cache_budget`], …). Every query path (`answer*`,
/// `plan*`, `warm`) takes `&self` and is safe to call from many threads
/// at once; readers only fill caches and counters. A served engine is
/// therefore changed by wrapping it in an [`EpochEngine`], whose
/// [`EpochEngine::update`] runs the mutation on a private clone and
/// publishes it atomically — a query never sees a half-applied write.
///
/// # Lock poisoning
///
/// Every internal lock acquisition recovers from poisoning
/// (`unwrap_or_else(PoisonError::into_inner)`) instead of propagating the
/// panic. This is sound because the locks only guard *cache* state
/// (extensions, plans, the query log) that is recomputable by
/// construction. Without recovery, one panicking request would turn
/// every subsequent lock acquisition into a panic — a death spiral the
/// serving-layer regression tests pin down.
#[derive(Debug)]
pub struct Engine {
    documents: Vec<Arc<PDocument>>,
    doc_names: HashMap<String, usize>,
    doc_stats: Vec<AtomicDocStats>,
    catalog: Catalog,
    options: QueryOptions,
    stats: AtomicEngineStats,
    plan_cache: PlanCache,
    plan_tick: AtomicU64,
    plan_cache_capacity: usize,
    query_log: Mutex<QueryLog>,
    catalog_epoch: u64,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine {
            documents: Vec::new(),
            doc_names: HashMap::new(),
            doc_stats: Vec::new(),
            catalog: Catalog::default(),
            options: QueryOptions::default(),
            stats: AtomicEngineStats::default(),
            plan_cache: RwLock::new(HashMap::new()),
            plan_tick: AtomicU64::new(0),
            plan_cache_capacity: PLAN_CACHE_CAPACITY,
            query_log: Mutex::new(QueryLog::default()),
            catalog_epoch: 0,
        }
    }
}

impl Clone for Engine {
    fn clone(&self) -> Engine {
        Engine {
            documents: self.documents.clone(),
            doc_names: self.doc_names.clone(),
            doc_stats: self
                .doc_stats
                .iter()
                .map(|s| {
                    let snap = s.snapshot();
                    AtomicDocStats {
                        materializations: AtomicU64::new(snap.materializations),
                        cache_hits: AtomicU64::new(snap.cache_hits),
                    }
                })
                .collect(),
            catalog: self.catalog.clone(),
            options: self.options.clone(),
            stats: AtomicEngineStats::restore(self.stats.snapshot()),
            plan_cache: RwLock::new(
                self.plan_cache
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .map(|(k, e)| {
                        (
                            k.clone(),
                            PlanEntry {
                                plan: Arc::clone(&e.plan),
                                last_used: AtomicU64::new(e.last_used.load(Ordering::Relaxed)),
                            },
                        )
                    })
                    .collect(),
            ),
            plan_tick: AtomicU64::new(self.plan_tick.load(Ordering::Relaxed)),
            plan_cache_capacity: self.plan_cache_capacity,
            query_log: Mutex::new(
                self.query_log
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
            catalog_epoch: self.catalog_epoch,
        }
    }
}

impl Engine {
    /// An engine with default [`QueryOptions`].
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine whose [`Engine::answer`] uses `options`.
    pub fn with_options(options: QueryOptions) -> Engine {
        Engine {
            options,
            ..Engine::default()
        }
    }

    /// The engine-level default options.
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// Registers (and validates) a document; names must be unique.
    pub fn add_document(
        &mut self,
        name: impl Into<String>,
        pdoc: PDocument,
    ) -> Result<DocId, EngineError> {
        let name = name.into();
        if self.doc_names.contains_key(&name) {
            return Err(EngineError::DuplicateDocument(name));
        }
        pdoc.validate()
            .map_err(|e| EngineError::InvalidDocument(e.to_string()))?;
        let id = DocId(self.documents.len());
        self.doc_names.insert(name, id.0);
        self.documents.push(Arc::new(pdoc));
        self.doc_stats.push(AtomicDocStats::default());
        Ok(id)
    }

    /// The document behind a handle — a cheap shared handle to its
    /// current content ([`Engine::apply_edits`] and
    /// [`Engine::replace_document`] install new content; handles already
    /// taken keep the content they saw).
    pub fn document(&self, id: DocId) -> Result<Arc<PDocument>, EngineError> {
        self.pdoc(id).map(Arc::clone)
    }

    /// The document behind a handle, borrowed.
    fn pdoc(&self, id: DocId) -> Result<&Arc<PDocument>, EngineError> {
        self.documents
            .get(id.0)
            .ok_or(EngineError::UnknownDocument(id))
    }

    /// Looks a document up by name.
    pub fn find_document(&self, name: &str) -> Option<DocId> {
        self.doc_names.get(name).copied().map(DocId)
    }

    /// Number of registered documents.
    pub fn document_count(&self) -> usize {
        self.documents.len()
    }

    /// Replaces a document's content wholesale and invalidates its cached
    /// extensions (resetting the document's [`DocStats`]). For localized
    /// changes prefer [`Engine::apply_edits`], which *keeps* the cache
    /// warm by maintaining extensions incrementally.
    pub fn replace_document(&mut self, id: DocId, pdoc: PDocument) -> Result<(), EngineError> {
        pdoc.validate()
            .map_err(|e| EngineError::InvalidDocument(e.to_string()))?;
        *self
            .documents
            .get_mut(id.0)
            .ok_or(EngineError::UnknownDocument(id))? = Arc::new(pdoc);
        self.invalidate(id)?;
        Ok(())
    }

    /// Drops every cached extension of `doc` and resets the document's
    /// [`DocStats`] counters, so post-invalidation queries report
    /// re-materializations rather than stale cache hits. Returns how many
    /// materialized extensions were evicted.
    pub fn invalidate(&mut self, doc: DocId) -> Result<usize, EngineError> {
        self.pdoc(doc)?;
        let evicted = self.catalog.invalidate(doc);
        self.doc_stats[doc.0] = AtomicDocStats::default();
        if evicted > 0 {
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        self.bump_epoch();
        Ok(evicted)
    }

    /// Applies a sequence of [`Edit`]s to a live document,
    /// **incrementally maintaining** every cached extension of that
    /// document instead of evicting it — the warm cache survives the
    /// mutation, which is the whole point of the update path (evicting
    /// would force exactly the rematerialization the engine exists to
    /// amortize).
    ///
    /// All-or-nothing: the edits are validated and applied to a private
    /// copy first, so an invalid edit anywhere in the sequence returns
    /// [`EngineError::Edit`] and mutates nothing. On success the catalog
    /// epoch is bumped (cached plans are dropped and earlier snapshots
    /// become stale, exactly like [`Engine::invalidate`]) and the
    /// per-step maintenance outcomes are surfaced in the returned
    /// [`UpdateReport`] and the engine-lifetime [`EngineStats`] counters
    /// (`edits_applied` / `deltas_applied` / `delta_fallbacks`).
    ///
    /// Post-edit answers are **bit-identical** to a cold engine built
    /// from the post-edit document: incremental maintenance produces,
    /// field for field, the extension a fresh materialization would.
    ///
    /// ```
    /// use pxv_engine::{Edit, Engine};
    /// use pxv_pxml::text::parse_pdocument;
    /// use pxv_pxml::NodeId;
    /// use pxv_rewrite::View;
    /// use pxv_tpq::parse::parse_pattern;
    ///
    /// let mut engine = Engine::new();
    /// let doc = engine
    ///     .add_document("d", parse_pdocument("a#0[mux#1(0.4: b#2[c#3], 0.6: b#4)]").unwrap())
    ///     .unwrap();
    /// engine.register_view(View::new("bs", parse_pattern("a/b").unwrap())).unwrap();
    /// let q = parse_pattern("a/b[c]").unwrap();
    /// assert_eq!(engine.answer(doc, &q).unwrap().stats.materializations, 1);
    ///
    /// // Reweigh one mux branch: the cached extension is maintained, not
    /// // evicted — the follow-up query is still a pure cache hit.
    /// let report = engine
    ///     .apply_edits(doc, &[Edit::SetProb { node: NodeId(2), prob: 0.25 }])
    ///     .unwrap();
    /// assert_eq!(report.edits, 1);
    /// let again = engine.answer(doc, &q).unwrap();
    /// assert_eq!(again.stats.materializations, 0);
    /// assert!((again.nodes[0].1 - 0.25).abs() < 1e-12);
    /// ```
    pub fn apply_edits(&mut self, doc: DocId, edits: &[Edit]) -> Result<UpdateReport, EngineError> {
        // Build the chain of intermediate documents (edit k maps state k
        // to state k+1) on private copies — one clone per edit, nothing
        // installed until every edit has validated.
        let mut states = vec![Arc::clone(self.pdoc(doc)?)];
        if edits.is_empty() {
            return Ok(UpdateReport::default());
        }
        let mut effects = Vec::with_capacity(edits.len());
        for edit in edits {
            let mut next = (**states.last().expect("seeded")).clone();
            effects.push(next.apply_edit(edit)?);
            states.push(Arc::new(next));
        }
        let last = states.last().expect("seeded");
        last.validate()
            .map_err(|e| EngineError::InvalidDocument(e.to_string()))?;
        // Maintain every completed cached extension across the chain.
        let mut report = UpdateReport {
            edits: edits.len(),
            ..UpdateReport::default()
        };
        report.inserted_roots = effects.iter().filter_map(|e| e.inserted_root).collect();
        let mut maintained = Vec::new();
        for (view_idx, ext, hits, rebuild_nanos) in self.catalog.completed_for(doc.0) {
            let mut cur = ext;
            for (k, edit) in edits.iter().enumerate() {
                let (next, outcome) = cur.apply_delta(&states[k + 1], edit, &effects[k]);
                match outcome {
                    DeltaOutcome::Incremental { .. } => report.deltas_applied += 1,
                    DeltaOutcome::Rematerialized => report.delta_fallbacks += 1,
                }
                cur = Arc::new(next);
            }
            maintained.push((view_idx, cur, hits, rebuild_nanos));
        }
        report.extensions_maintained = maintained.len();
        self.documents[doc.0] = states.pop().expect("seeded");
        self.catalog.invalidate(doc);
        for (view_idx, ext, hits, rebuild_nanos) in maintained {
            // Maintained entries keep their learned score components: an
            // edit changes the bytes but not the demand history.
            self.catalog
                .install_entry(doc.0, view_idx, ext, rebuild_nanos, hits);
        }
        // Maintenance may have grown extensions past the budget; enforce
        // once for the whole batch.
        self.catalog.enforce_budget(None);
        self.bump_epoch();
        self.stats
            .edits_applied
            .fetch_add(report.edits as u64, Ordering::Relaxed);
        self.stats
            .deltas_applied
            .fetch_add(report.deltas_applied, Ordering::Relaxed);
        self.stats
            .delta_fallbacks
            .fetch_add(report.delta_fallbacks, Ordering::Relaxed);
        Ok(report)
    }

    /// Registers a view in the engine's catalog. Bumps the catalog epoch:
    /// cached plans were computed against the old view set and are
    /// discarded.
    pub fn register_view(&mut self, view: View) -> Result<ViewId, EngineError> {
        let id = self.catalog.register(view)?;
        self.bump_epoch();
        Ok(id)
    }

    /// Advances the catalog epoch and drops every cached plan (they are
    /// keyed by the old epoch and could never be read again anyway).
    fn bump_epoch(&mut self) {
        self.catalog_epoch += 1;
        self.plan_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// The current catalog epoch: bumped by [`Engine::register_view`],
    /// [`Engine::invalidate`] and [`Engine::apply_edits`] (and therefore
    /// by [`Engine::replace_document`]). Plan-cache entries are scoped to
    /// one epoch, and a snapshot records the epoch it was taken at.
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog_epoch
    }

    /// Registers several views, stopping at the first error.
    pub fn register_views(
        &mut self,
        views: impl IntoIterator<Item = View>,
    ) -> Result<Vec<ViewId>, EngineError> {
        views.into_iter().map(|v| self.register_view(v)).collect()
    }

    /// The catalog (views + extension cache).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Lifetime counters (a consistent-enough snapshot of the atomics;
    /// exact once concurrent queries have quiesced).
    pub fn stats(&self) -> EngineStats {
        let mut snapshot = self.stats.snapshot();
        snapshot.cache_bytes = self.catalog.cache_bytes();
        snapshot.evictions = self.catalog.evictions();
        snapshot.admission_rejects = self.catalog.admission_rejects();
        snapshot.sections_faulted = self.catalog.sections_faulted();
        snapshot.lazy_decode_ns = self.catalog.lazy_decode_nanos();
        snapshot
    }

    /// Sets the extension-cache byte budget (`u64::MAX` = unbounded) and
    /// immediately evicts down to it. Budget pressure only affects what
    /// the shared cache *retains* — answers stay bit-identical, evicted
    /// extensions simply rematerialize on next use.
    pub fn set_cache_budget(&mut self, bytes: u64) {
        self.catalog.set_budget(bytes);
    }

    /// The configured extension-cache byte budget (`u64::MAX` =
    /// unbounded).
    pub fn cache_budget(&self) -> u64 {
        self.catalog.budget()
    }

    /// Bytes currently held by completed cached extensions.
    pub fn cache_bytes(&self) -> u64 {
        self.catalog.cache_bytes()
    }

    /// The most recent eviction/rejection records, oldest first.
    pub fn eviction_log(&self) -> Vec<EvictionRecord> {
        self.catalog.eviction_log()
    }

    /// Folds an observed query into the bounded workload log that feeds
    /// [`Engine::advise`] — the same recording every [`Engine::answer`]
    /// call does implicitly, exposed for replaying an offline workload
    /// trace with explicit multiplicities.
    pub fn record_query(&self, doc: DocId, q: &TreePattern, count: u64) -> Result<(), EngineError> {
        self.pdoc(doc)?;
        if count > 0 {
            self.query_log
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(doc.0, q, count);
        }
        Ok(())
    }

    /// The current workload log as advisor input, most-frequent first
    /// (ties broken by document index then canonical form, so the order
    /// is deterministic).
    pub fn query_log(&self) -> Vec<WorkloadQuery> {
        let log = self
            .query_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<(String, WorkloadQuery)> = log
            .entries
            .iter()
            .map(|((doc, key), slot)| {
                (
                    key.clone(),
                    WorkloadQuery {
                        doc: *doc,
                        pattern: slot.pattern.clone(),
                        count: slot.count,
                    },
                )
            })
            .collect();
        out.sort_by(|(ka, a), (kb, b)| {
            b.count
                .cmp(&a.count)
                .then(a.doc.cmp(&b.doc))
                .then(ka.cmp(kb))
        });
        out.into_iter().map(|(_, q)| q).collect()
    }

    /// Empties the workload log (e.g. after acting on an
    /// [`AdvisorReport`], so the next report reflects fresh demand).
    pub fn clear_query_log(&mut self) {
        self.query_log
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .clear();
    }

    /// Mines the workload log for candidate views and scores them
    /// against the byte budget (see `pxv-advisor`). When
    /// `options.budget` is unbounded but the engine's cache budget is
    /// not, the advisor is handed the budget headroom left by the
    /// current cache, so proposals fit alongside what is already
    /// resident. Read-only: nothing is registered — pair with
    /// [`Engine::advise_and_register`] to act on the report.
    pub fn advise(&self, options: &AdviseOptions) -> AdvisorReport {
        let mut options = options.clone();
        if options.budget == u64::MAX && self.catalog.budget() != u64::MAX {
            options.budget = self
                .catalog
                .budget()
                .saturating_sub(self.catalog.cache_bytes());
        }
        pxv_advisor::advise(
            &self.query_log(),
            &self.catalog.views,
            |doc| self.document(DocId(doc)).ok(),
            &options,
        )
    }

    /// Runs [`Engine::advise`] and registers every admitted candidate as
    /// a real view (bumping the catalog epoch once if anything was
    /// registered). Returns the report alongside the new [`ViewId`]s, in
    /// the report's admitted order.
    pub fn advise_and_register(
        &mut self,
        options: &AdviseOptions,
    ) -> Result<(AdvisorReport, Vec<ViewId>), EngineError> {
        let report = self.advise(options);
        let mut ids = Vec::new();
        for candidate in report.admitted() {
            ids.push(
                self.register_view(View::new(candidate.name.clone(), candidate.pattern.clone()))?,
            );
        }
        Ok((report, ids))
    }

    /// Current-generation cache counters for one document (reset by
    /// [`Engine::invalidate`]).
    pub fn doc_stats(&self, doc: DocId) -> Result<DocStats, EngineError> {
        self.doc_stats
            .get(doc.0)
            .map(AtomicDocStats::snapshot)
            .ok_or(EngineError::UnknownDocument(doc))
    }

    /// Plans `q` over the catalog with the engine's default options,
    /// without executing anything.
    pub fn plan(&self, q: &TreePattern) -> Result<Plan, EngineError> {
        self.plan_with(q, &self.options)
    }

    /// Plans `q` with explicit options (through the plan cache).
    pub fn plan_with(&self, q: &TreePattern, options: &QueryOptions) -> Result<Plan, EngineError> {
        check_width(q)?;
        match &*self.cached_plan(q, options) {
            Ok(plan) => Ok(plan.clone()),
            Err(e) => Err(EngineError::Plan(e.clone())),
        }
    }

    /// The memoized planner outcome for `q` under `options` and the
    /// current catalog epoch. On a miss the plan is computed and the
    /// first-inserted entry wins, so racing threads observe one canonical
    /// outcome per key.
    fn cached_plan(&self, q: &TreePattern, options: &QueryOptions) -> Arc<Result<Plan, PlanError>> {
        let key = PlanKey::new(q, self.catalog_epoch(), options);
        {
            let map = self
                .plan_cache
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = map.get(&key) {
                entry.last_used.store(
                    self.plan_tick.fetch_add(1, Ordering::Relaxed) + 1,
                    Ordering::Relaxed,
                );
                self.stats.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.plan);
            }
        }
        self.stats.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        let planned = Arc::new(plan_checked(
            q,
            &self.catalog.views,
            options.interleaving_limit,
            options.preference,
        ));
        let mut map = self
            .plan_cache
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let cap = self.plan_cache_capacity;
        if map.len() >= cap && !map.contains_key(&key) {
            // LRU-ish eviction: drop the least-recently-used entries —
            // at least an eighth of the cache — so a stream of unique
            // queries pays the O(n) scan once per batch, not per miss.
            let excess = map.len() + 1 - cap;
            drop_lru(&mut map, excess.max(cap / 8));
        }
        let tick = self.plan_tick.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = map.entry(key).or_insert_with(|| PlanEntry {
            plan: planned,
            last_used: AtomicU64::new(tick),
        });
        Arc::clone(&entry.plan)
    }

    /// Sets the plan-cache capacity (entries, not bytes) and immediately
    /// evicts down to it. A capacity of 0 is treated as 1.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.plan_cache_capacity = capacity.max(1);
        let map = self
            .plan_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        drop_lru(map, map.len().saturating_sub(self.plan_cache_capacity));
    }

    /// The configured plan-cache capacity.
    pub fn plan_cache_capacity(&self) -> usize {
        self.plan_cache_capacity
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Eagerly materializes every registered view over `doc`; returns the
    /// number of extensions newly made resident (materialized, or faulted
    /// in from a lazy snapshot section).
    pub fn warm(&self, doc: DocId) -> Result<usize, EngineError> {
        let pdoc = self.pdoc(doc)?;
        let mut new = 0;
        for i in 0..self.catalog.views.len() {
            let (_, probe) = self.catalog.extension(doc.0, pdoc, i)?;
            match probe {
                Probe::Hit => {}
                Probe::Faulted => new += 1,
                Probe::Materialized => {
                    new += 1;
                    self.stats.materializations.fetch_add(1, Ordering::Relaxed);
                    self.doc_stats[doc.0]
                        .materializations
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(new)
    }

    /// Answers `q` over `doc` with the engine's default options.
    pub fn answer(&self, doc: DocId, q: &TreePattern) -> Result<Answer, EngineError> {
        self.answer_with(doc, q, &self.options)
    }

    /// Answers `q` over `doc`: plans over the catalog, materializes (or
    /// reuses) exactly the extensions the plan references, and evaluates
    /// touching only those extensions.
    pub fn answer_with(
        &self,
        doc: DocId,
        q: &TreePattern,
        options: &QueryOptions,
    ) -> Result<Answer, EngineError> {
        let pdoc = self.pdoc(doc)?;
        check_width(q)?;
        // When profiling is off (the default) every timing site below is
        // a `None` branch — no clocks are read, so the answer path is
        // bit-identical to an uninstrumented run. The spans are equally
        // free: `Span::enter` is inert (no clock, no allocation) unless
        // the process recorder or an ambient trace context is active.
        let mut span_answer = pxv_obs::Span::enter("answer");
        span_answer.record("doc", doc.0 as u64);
        let t_total = options.profile.then(Instant::now);
        // Every answered query is workload evidence for the advisor —
        // recorded before planning so unanswerable (fallback) queries
        // count too; those are exactly the ones a new view could cover.
        self.query_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(doc.0, q, 1);
        let t_plan = t_total.map(|_| Instant::now());
        let planned = {
            let _span = pxv_obs::Span::enter("plan");
            self.cached_plan(q, options)
        };
        let plan_nanos = t_plan.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let plan = match &*planned {
            Ok(plan) => plan.clone(),
            Err(e) => {
                return match options.fallback {
                    Fallback::Forbid => Err(EngineError::Plan(e.clone())),
                    Fallback::Direct => {
                        let t_eval = t_total.map(|_| Instant::now());
                        let _span = pxv_obs::Span::enter("eval");
                        let mut answer = self.direct_answer(
                            pdoc,
                            q,
                            format!("direct evaluation (fallback: {e})"),
                        );
                        if let Some(start) = t_total {
                            answer.profile = Some(QueryProfile {
                                plan_nanos,
                                eval_nanos: t_eval.map_or(0, |t| t.elapsed().as_nanos() as u64),
                                total_nanos: start.elapsed().as_nanos() as u64,
                                cache_bytes: self.catalog.cache_bytes(),
                                epoch: self.catalog_epoch(),
                                ..QueryProfile::default()
                            });
                        }
                        Ok(answer)
                    }
                }
            }
        };
        // Fetch exactly the extensions the plan references.
        let referenced = plan.referenced_views();
        let mut hits = 0;
        let mut mats = 0;
        let mut probe_nanos = 0u64;
        let mut materialize_nanos = 0u64;
        let mut slots: HashMap<usize, Arc<ProbExtension>> = HashMap::new();
        for &i in &referenced {
            let mut span_probe = pxv_obs::Span::enter("probe");
            span_probe.record("view", i as u64);
            let t_ext = t_total.map(|_| Instant::now());
            let (ext, probe) = self.catalog.extension(doc.0, pdoc, i)?;
            span_probe.record("hit", (probe != Probe::Materialized) as u64);
            span_probe.record("fault", (probe == Probe::Faulted) as u64);
            if let Some(t) = t_ext {
                let nanos = t.elapsed().as_nanos() as u64;
                // A hit is a pure cache probe (a lazy fault is billed the
                // same way — its decode time is tracked by the catalog's
                // own counter); a miss spent its time materializing
                // (probe cost is noise within it).
                if probe == Probe::Materialized {
                    materialize_nanos += nanos;
                } else {
                    probe_nanos += nanos;
                }
            }
            // A fault counts as a cache hit: the extension was already
            // resident in the snapshot, not rebuilt from the document, so
            // `extensions_touched == cache_hits + materializations` holds.
            if probe == Probe::Materialized {
                mats += 1;
            } else {
                hits += 1;
            }
            slots.insert(i, ext);
        }
        let t_eval = t_total.map(|_| Instant::now());
        let mut span_eval = pxv_obs::Span::enter("eval");
        let (nodes, candidates) = match &plan {
            Plan::Tp(rw) => {
                let ext = &slots[&rw.view_index];
                (answer_tp(rw, ext), ext.results.len())
            }
            Plan::Tpi(rw) => {
                let exec = execute_tpi(rw, &|i| &*slots[&i]);
                (exec.answers, exec.candidates)
            }
        };
        span_eval.record("candidates", candidates as u64);
        drop(span_eval);
        let eval_nanos = t_eval.map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        match &plan {
            Plan::Tp(_) => self.stats.plans_tp.fetch_add(1, Ordering::Relaxed),
            Plan::Tpi(_) => self.stats.plans_tpi.fetch_add(1, Ordering::Relaxed),
        };
        self.stats
            .materializations
            .fetch_add(mats as u64, Ordering::Relaxed);
        self.stats
            .cache_hits
            .fetch_add(hits as u64, Ordering::Relaxed);
        self.doc_stats[doc.0]
            .materializations
            .fetch_add(mats as u64, Ordering::Relaxed);
        self.doc_stats[doc.0]
            .cache_hits
            .fetch_add(hits as u64, Ordering::Relaxed);
        Ok(Answer {
            nodes,
            description: plan.describe(&self.catalog.views),
            plan: Some(plan),
            stats: QueryStats {
                extensions_touched: referenced.len(),
                cache_hits: hits,
                materializations: mats,
                candidates,
            },
            profile: t_total.map(|start| QueryProfile {
                plan_nanos,
                probe_nanos,
                materialize_nanos,
                eval_nanos,
                total_nanos: start.elapsed().as_nanos() as u64,
                cache_bytes: self.catalog.cache_bytes(),
                epoch: self.catalog_epoch(),
                ..QueryProfile::default()
            }),
        })
    }

    /// Answers a batch of queries concurrently on a worker pool sized to
    /// the available parallelism (capped by the batch length), with the
    /// engine's default options. Results come back in input order and are
    /// identical to answering each query sequentially — workers share the
    /// sharded catalog, and single-flight materialization guarantees no
    /// extension is built twice even when every query needs the same cold
    /// view.
    pub fn answer_batch(
        &self,
        queries: &[(DocId, TreePattern)],
    ) -> Vec<Result<Answer, EngineError>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.answer_batch_with(queries, &self.options, threads)
    }

    /// [`Engine::answer_batch`] with explicit options and worker count.
    /// `threads` is clamped to `1..=queries.len()`; with `threads == 1`
    /// the batch runs inline on the calling thread.
    pub fn answer_batch_with(
        &self,
        queries: &[(DocId, TreePattern)],
        options: &QueryOptions,
        threads: usize,
    ) -> Vec<Result<Answer, EngineError>> {
        let n = queries.len();
        let threads = threads.clamp(1, n.max(1));
        if n == 0 {
            return Vec::new();
        }
        if threads == 1 {
            return queries
                .iter()
                .map(|(doc, q)| self.answer_with(*doc, q, options))
                .collect();
        }
        // Hand-rolled chunk-free dispatch: workers pull the next query
        // index off a shared atomic cursor, so long queries never stall a
        // statically-assigned chunk, and results are stitched back into
        // input order at the end.
        //
        // Trace propagation is explicit: the ambient `TraceContext` is
        // thread-local, so each spawned worker re-installs a clone of the
        // caller's context before answering — worker spans then carry the
        // same trace id (and feed the same flight recorder) as if the
        // batch had run inline.
        let ambient = pxv_obs::TraceContext::current();
        let cursor = AtomicUsize::new(0);
        let mut out: Vec<Option<Result<Answer, EngineError>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let ambient = ambient.clone();
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let _ctx = ambient.map(pxv_obs::TraceContext::install);
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let (doc, q) = &queries[i];
                            local.push((i, self.answer_with(*doc, q, options)));
                        }
                        local
                    })
                })
                .collect();
            for worker in workers {
                for (i, result) in worker.join().expect("batch worker panicked") {
                    out[i] = Some(result);
                }
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("every query index dispatched exactly once"))
            .collect()
    }

    /// A point-in-time [`Snapshot`] of the engine: documents, registered
    /// views, every *completed* cached extension, and the catalog epoch.
    ///
    /// The snapshot reads the **live** cache, so extensions evicted by
    /// [`Engine::invalidate`] can never reappear in a later snapshot
    /// (the staleness contract; see DESIGN.md §8). Lifetime counters are
    /// deliberately not captured — a restored engine starts with zeroed
    /// stats, which is what makes "`materializations == 0` on the warm
    /// path" directly observable after a restore.
    pub fn snapshot(&self) -> Snapshot {
        let mut names = vec![String::new(); self.documents.len()];
        for (name, &idx) in &self.doc_names {
            names[idx] = name.clone();
        }
        let documents = names
            .into_iter()
            .zip(self.documents.iter().map(|pdoc| (**pdoc).clone()))
            .collect();
        let extensions = self
            .catalog
            .completed_entries()
            .into_iter()
            .map(|(doc, view, ext, hits, rebuild_nanos)| ExtensionEntry {
                doc,
                view,
                extension: (*ext).clone(),
                hits,
                rebuild_nanos,
            })
            .collect();
        Snapshot {
            documents,
            views: self.catalog.views.clone(),
            extensions,
            epoch: self.catalog_epoch(),
            budget: self.catalog.budget(),
        }
    }

    /// Rebuilds an engine from a [`Snapshot`] with explicit default
    /// [`QueryOptions`] (options are per-process configuration and are
    /// not part of a snapshot). Cached extensions are installed without
    /// re-materializing anything, and the catalog epoch is restored, so
    /// warm queries run cache-hit-only and answer **bit-identically** to
    /// the engine the snapshot was taken from.
    pub fn from_snapshot_with(
        snapshot: Snapshot,
        options: QueryOptions,
    ) -> Result<Engine, StoreError> {
        let invalid = |e: EngineError| StoreError::Invalid(e.to_string());
        let mut engine = Engine::with_options(options);
        for (name, pdoc) in snapshot.documents {
            engine.add_document(name, pdoc).map_err(invalid)?;
        }
        for view in snapshot.views {
            engine.register_view(view).map_err(invalid)?;
        }
        for entry in snapshot.extensions {
            engine.check_restored_slot(entry.doc, entry.view)?;
            engine.check_restored_extension(entry.doc, entry.view, &entry.extension)?;
            engine.catalog.install_entry(
                entry.doc,
                entry.view,
                Arc::new(entry.extension),
                entry.rebuild_nanos,
                entry.hits,
            );
        }
        // Adopt the snapshot's budget last: heap accounting is
        // deterministic (logical sizes, not allocator capacities), so a
        // cache that fit the budget when saved still fits after restore
        // and nothing is evicted here.
        engine.catalog.set_budget(snapshot.budget);
        // Adopt the snapshot's epoch (registration bumped a fresh
        // counter; plan-cache entries are keyed by epoch, and the cache
        // is empty, so this is purely the generation label).
        engine.catalog_epoch = snapshot.epoch;
        Ok(engine)
    }

    /// [`Engine::from_snapshot_with`] with default options.
    pub fn from_snapshot(snapshot: Snapshot) -> Result<Engine, StoreError> {
        Engine::from_snapshot_with(snapshot, QueryOptions::default())
    }

    /// Bounds-checks a restored extension's `(doc, view)` slot.
    fn check_restored_slot(&self, doc: usize, view: usize) -> Result<(), StoreError> {
        if doc >= self.documents.len() {
            return Err(StoreError::Invalid(format!(
                "extension references document {} of {}",
                doc,
                self.documents.len()
            )));
        }
        if view >= self.catalog.views.len() {
            return Err(StoreError::Invalid(format!(
                "extension references view {} of {}",
                view,
                self.catalog.views.len()
            )));
        }
        Ok(())
    }

    /// Validates a decoded extension against the catalog slot it was
    /// filed under: the view names must agree, and every original node
    /// the extension bundles must exist in the target document with a
    /// matching label, so a snapshot whose index was mis-filed (by a bug
    /// or a checksum-consistent edit) is rejected instead of silently
    /// serving another document's answers. The lazy restore path defers
    /// this check to fault time ([`EngineError::Section`]).
    fn check_restored_extension(
        &self,
        doc: usize,
        view_idx: usize,
        ext: &ProbExtension,
    ) -> Result<(), StoreError> {
        let view = &self.catalog.views[view_idx];
        if view.name != ext.view.name {
            return Err(StoreError::Invalid(format!(
                "extension for view `{}` filed under catalog slot `{}`",
                ext.view.name, view.name
            )));
        }
        if !extension_matches(ext, &self.documents[doc]) {
            return Err(StoreError::Invalid(format!(
                "extension of view `{}` does not match document {}",
                view.name, doc
            )));
        }
        Ok(())
    }

    /// Rebuilds an engine from a [`pxv_store::LazySnapshot`] (see
    /// [`pxv_store::decode_snapshot_lazy`]): documents and views are
    /// installed eagerly, but each still-encoded extension section is
    /// parked as a pending catalog slot holding only a reference into the
    /// snapshot's byte buffer. Boot cost is proportional to the section
    /// directory, not to the extension payload; the first query that
    /// probes a pending slot decodes it (single-flight) and later probes
    /// are plain hits. A corrupt section surfaces as a typed
    /// [`EngineError::Section`] at query time while every other section
    /// keeps serving — restore itself only fails on structural problems
    /// visible in the directory.
    pub fn from_snapshot_lazy_with(
        snapshot: pxv_store::LazySnapshot,
        options: QueryOptions,
    ) -> Result<Engine, StoreError> {
        let invalid = |e: EngineError| StoreError::Invalid(e.to_string());
        let mut engine = Engine::with_options(options);
        for (name, pdoc) in snapshot.documents {
            engine.add_document(name, pdoc).map_err(invalid)?;
        }
        for view in snapshot.views {
            engine.register_view(view).map_err(invalid)?;
        }
        for section in snapshot.sections {
            engine.check_restored_slot(section.doc, section.view)?;
            match section.body {
                pxv_store::LazyBody::Ready(ext) => {
                    engine.check_restored_extension(section.doc, section.view, &ext)?;
                    engine.catalog.install_entry(
                        section.doc,
                        section.view,
                        Arc::new(*ext),
                        section.rebuild_nanos,
                        section.hits,
                    );
                }
                pxv_store::LazyBody::Pending(body) => {
                    engine.catalog.install_pending(
                        section.doc,
                        section.view,
                        body,
                        section.rebuild_nanos,
                        section.hits,
                    );
                }
            }
        }
        engine.catalog.set_budget(snapshot.budget);
        engine.catalog_epoch = snapshot.epoch;
        Ok(engine)
    }

    /// [`Engine::from_snapshot_lazy_with`] with default options.
    pub fn from_snapshot_lazy(snapshot: pxv_store::LazySnapshot) -> Result<Engine, StoreError> {
        Engine::from_snapshot_lazy_with(snapshot, QueryOptions::default())
    }

    /// Restores an engine lazily from a snapshot file: like
    /// [`Engine::restore_from`], but extension sections stay encoded
    /// until first probe. v1/v2 snapshot files decode eagerly under the
    /// same call, so this is always safe to prefer when serving.
    pub fn restore_lazy(path: impl AsRef<Path>) -> Result<Engine, StoreError> {
        Engine::from_snapshot_lazy(pxv_store::read_snapshot_lazy(path)?)
    }

    /// Saves a snapshot of this engine to `path` atomically
    /// (write-temp-then-rename via `pxv-store`). Returns the bytes
    /// written.
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> Result<u64, StoreError> {
        pxv_store::write_snapshot(path, &self.snapshot())
    }

    /// Restores an engine from a snapshot file written by
    /// [`Engine::snapshot_to`] (or the `SAVE` protocol command /
    /// `prxview save`). Corrupted, truncated, wrong-version or
    /// wrong-checksum files are rejected with a typed [`StoreError`] —
    /// never a panic.
    pub fn restore_from(path: impl AsRef<Path>) -> Result<Engine, StoreError> {
        Engine::from_snapshot(pxv_store::read_snapshot(path)?)
    }

    /// Evaluates `q` directly over the original p-document (the baseline
    /// the rewriting avoids; touches no extension).
    pub fn answer_direct(&self, doc: DocId, q: &TreePattern) -> Result<Answer, EngineError> {
        let pdoc = self.pdoc(doc)?;
        check_width(q)?;
        Ok(self.direct_answer(pdoc, q, "direct evaluation".to_string()))
    }

    /// Shared direct-evaluation path (plain `answer_direct` and the
    /// `Fallback::Direct` branch of `answer_with`).
    fn direct_answer(&self, pdoc: &PDocument, q: &TreePattern, description: String) -> Answer {
        let nodes = pxv_peval::eval_tp(pdoc, q);
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.stats.direct.fetch_add(1, Ordering::Relaxed);
        Answer {
            stats: QueryStats {
                candidates: nodes.len(),
                ..QueryStats::default()
            },
            nodes,
            plan: None,
            description,
            profile: None,
        }
    }
}

/// Multi-version concurrency control (MVCC) over a whole [`Engine`]:
/// readers resolve against an atomically published engine *epoch* — an
/// `Arc<Engine>` snapshot — while writers prepare the next epoch off to
/// the side and publish it with one pointer swap. Readers therefore
/// **never block** on an in-flight mutation, no matter how long the
/// writer's prepare phase takes; this is what lets the `prxd` server
/// answer `QUERY`/`BATCH`/`STATS` at full speed through an `UPDATE` or
/// `RESTORE` storm. Every [`Engine`] mutation takes `&mut self`, so a
/// published epoch is immutable apart from its caches and counters, and
/// [`EpochEngine::update`] (or [`EpochEngine::replace`]) is the only way
/// to change what readers see.
///
/// # Epoch publication rules
///
/// - [`EpochEngine::read`] hands out the current epoch as an
///   `Arc<Engine>`. The internal lock is held only for the duration of
///   the `Arc` clone, never across engine work.
/// - [`EpochEngine::update`] serializes writers on a mutex, clones the
///   current engine ([`Engine::clone`] shares documents and cached
///   extensions by `Arc`, so the copy is proportional to the *catalog
///   index*, not the data), runs the mutation on the private clone, and
///   publishes it only if the closure returns `Ok` — an error (or a
///   panic) discards the clone and leaves the published epoch untouched.
/// - In-flight readers keep the epoch they started with: a query that
///   began on epoch `n` completes against epoch `n` — documents, views
///   and warm extensions alike — even if epoch `n+1` publishes midway.
///   This is snapshot isolation without serializing reads: no query can
///   mix one view's pre-edit extension with another's post-edit one.
///
/// The documented trade-off: statistics incremented by readers of epoch
/// `n` *during* a writer's prepare window are not reflected in epoch
/// `n+1` (the clone carried a snapshot of the counters). Counters are
/// telemetry, not ledger state; sequential flows observe exact values.
#[derive(Debug)]
pub struct EpochEngine {
    /// The published epoch. Lock hold times are O(1): `Arc` clone on
    /// read, pointer swap on publish.
    current: RwLock<Arc<Engine>>,
    /// Serializes writers so each prepares against the latest epoch.
    writer: Mutex<()>,
    /// Monotonic count of published epochs (the seed engine is epoch 0).
    epoch: AtomicU64,
}

impl EpochEngine {
    /// Wraps `engine` as the initial published epoch (epoch 0).
    pub fn new(engine: Engine) -> EpochEngine {
        EpochEngine {
            current: RwLock::new(Arc::new(engine)),
            writer: Mutex::new(()),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current epoch's engine, as a shared snapshot. Queries resolved
    /// against it are isolated from any concurrently publishing writer.
    pub fn read(&self) -> Arc<Engine> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// How many epochs have been published over the initial engine.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Runs `f` on a private clone of the current engine and publishes
    /// the clone as the next epoch **iff** `f` returns `Ok`. On `Err` —
    /// or on a panic inside `f` — the clone is discarded and the
    /// published epoch is untouched, so readers can never observe a
    /// half-applied mutation.
    pub fn update<R, E>(&self, f: impl FnOnce(&mut Engine) -> Result<R, E>) -> Result<R, E> {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut next = Engine::clone(&self.read());
        let out = f(&mut next)?;
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(out)
    }

    /// Publishes `engine` wholesale as the next epoch (the `RESTORE`
    /// path: the replacement was built from a snapshot, outside any
    /// lock).
    pub fn replace(&self, engine: Engine) {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(engine);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_pxml::examples_paper::fig2_pper;
    use pxv_pxml::text::parse_pdocument;
    use pxv_tpq::parse::parse_pattern;

    // The whole point of the sharded catalog + atomic stats: an Engine is
    // shareable across threads.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Catalog>();
        assert_send_sync::<Answer>();
        assert_send_sync::<EngineError>();
    };

    fn p(s: &str) -> TreePattern {
        parse_pattern(s).unwrap()
    }

    fn bonus_engine() -> (Engine, DocId) {
        let mut e = Engine::new();
        let doc = e.add_document("pper", fig2_pper()).unwrap();
        e.register_views([
            View::new("rick", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("bonuses", p("IT-personnel//person/bonus")),
        ])
        .unwrap();
        (e, doc)
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut e, _) = bonus_engine();
        assert_eq!(
            e.register_view(View::new("rick", p("a/b"))).err(),
            Some(EngineError::DuplicateView("rick".into()))
        );
        assert_eq!(
            e.add_document("pper", fig2_pper()).err(),
            Some(EngineError::DuplicateDocument("pper".into()))
        );
    }

    #[test]
    fn unknown_and_invalid_documents_rejected() {
        let (mut e, _) = bonus_engine();
        let bogus = DocId(99);
        assert!(matches!(
            e.answer(bogus, &p("a")).err(),
            Some(EngineError::UnknownDocument(_))
        ));
        assert!(matches!(
            e.invalidate(bogus).err(),
            Some(EngineError::UnknownDocument(_))
        ));
        assert!(matches!(
            e.doc_stats(bogus).err(),
            Some(EngineError::UnknownDocument(_))
        ));
        // A mux with mass > 1 fails validation.
        let mut bad = PDocument::new(pxv_pxml::Label::new("a"));
        let m = bad.add_dist(bad.root(), pxv_pxml::PKind::Mux, 1.0);
        bad.add_ordinary(m, pxv_pxml::Label::new("b"), 0.7);
        bad.add_ordinary(m, pxv_pxml::Label::new("c"), 0.7);
        assert!(matches!(
            e.add_document("bad", bad).err(),
            Some(EngineError::InvalidDocument(_))
        ));
    }

    #[test]
    fn warm_then_all_hits() {
        let (e, doc) = bonus_engine();
        assert_eq!(e.warm(doc).unwrap(), 2);
        assert_eq!(e.warm(doc).unwrap(), 0, "second warm is a no-op");
        let a = e
            .answer(doc, &p("IT-personnel//person/bonus[laptop]"))
            .unwrap();
        assert_eq!(a.stats.materializations, 0);
        assert_eq!(a.stats.cache_hits, a.stats.extensions_touched);
        assert_eq!(e.catalog().cached_extensions(doc), 2);
        let ds = e.doc_stats(doc).unwrap();
        assert_eq!(ds.materializations, 2);
        assert_eq!(ds.cache_hits, 1);
    }

    #[test]
    fn fallback_policy() {
        // Example 11: no probabilistic rewriting exists.
        let mut e = Engine::new();
        let doc = e
            .add_document("d", parse_pdocument("a#0[b#1[mux#2(0.5: c#3)]]").unwrap())
            .unwrap();
        e.register_view(View::new("v", p("a[.//c]/b"))).unwrap();
        let q = p("a/b[c]");
        let err = e.answer(doc, &q).expect_err("forbidden by default");
        assert!(matches!(err, EngineError::Plan(_)), "{err}");
        let opts = QueryOptions::new().fallback(Fallback::Direct);
        let a = e.answer_with(doc, &q, &opts).unwrap();
        assert!(!a.from_views());
        assert_eq!(a.stats.extensions_touched, 0);
        assert_eq!(a.nodes, vec![(NodeId(1), 0.5)]);
        assert_eq!(e.stats().direct, 1);
    }

    #[test]
    fn replace_document_invalidates_cache() {
        let mut e = Engine::new();
        let doc = e
            .add_document("d", parse_pdocument("a[b[c]]").unwrap())
            .unwrap();
        e.register_view(View::new("bs", p("a/b"))).unwrap();
        let q = p("a/b[c]");
        let a1 = e.answer(doc, &q).unwrap();
        assert_eq!(a1.nodes.len(), 1);
        e.replace_document(doc, parse_pdocument("a[b, b[c]]").unwrap())
            .unwrap();
        assert_eq!(e.catalog().cached_extensions(doc), 0);
        let a2 = e.answer(doc, &q).unwrap();
        assert_eq!(a2.stats.materializations, 1, "cache was invalidated");
        assert_eq!(a2.nodes.len(), 1);
        assert_eq!(e.stats().invalidations, 1);
    }

    #[test]
    fn per_document_cache_keys() {
        let mut e = Engine::new();
        let d1 = e
            .add_document("d1", parse_pdocument("a[b[c]]").unwrap())
            .unwrap();
        let d2 = e
            .add_document("d2", parse_pdocument("a[b, b[c]]").unwrap())
            .unwrap();
        e.register_view(View::new("bs", p("a/b"))).unwrap();
        let q = p("a/b");
        let a1 = e.answer(d1, &q).unwrap();
        assert_eq!(a1.stats.materializations, 1);
        // Different document: its own extension, not d1's.
        let a2 = e.answer(d2, &q).unwrap();
        assert_eq!(a2.stats.materializations, 1);
        assert_eq!(a2.nodes.len(), 2);
        assert_eq!(a1.nodes.len(), 1);
    }

    #[test]
    fn batch_matches_sequential_on_empty_and_small_inputs() {
        let (e, doc) = bonus_engine();
        assert!(e.answer_batch(&[]).is_empty());
        let q = p("IT-personnel//person/bonus[laptop]");
        let batch = vec![(doc, q.clone()); 5];
        for threads in [1, 2, 4, 8] {
            let fresh = e.clone();
            let results = fresh.answer_batch_with(&batch, fresh.options(), threads);
            let sequential = e.clone();
            let want: Vec<_> = batch
                .iter()
                .map(|(d, q)| sequential.answer(*d, q).unwrap())
                .collect();
            for (got, want) in results.iter().zip(&want) {
                let got = got.as_ref().expect("batch answer");
                assert_eq!(got.nodes, want.nodes, "threads={threads}");
                assert_eq!(got.description, want.description);
            }
        }
    }

    #[test]
    fn batch_reports_per_query_errors() {
        let (e, doc) = bonus_engine();
        let batch = vec![
            (doc, p("IT-personnel//person/bonus[laptop]")),
            (DocId(42), p("a")),                    // unknown document
            (doc, p("unrelated//query")),           // no rewriting, Forbid
            (doc, p("IT-personnel//person/bonus")), // identity rewriting
        ];
        let results = e.answer_batch_with(&batch, e.options(), 4);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(EngineError::UnknownDocument(_))));
        assert!(matches!(results[2], Err(EngineError::Plan(_))));
        assert!(results[3].is_ok());
    }

    #[test]
    fn snapshot_restore_is_bit_identical_and_warm() {
        let (e, doc) = bonus_engine();
        e.warm(doc).unwrap();
        let q = p("IT-personnel//person/bonus[laptop]");
        let want = e.answer(doc, &q).unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.extensions.len(), 2);
        assert_eq!(snap.documents[0].0, "pper");
        let restored = Engine::from_snapshot(snap).unwrap();
        assert_eq!(restored.catalog_epoch(), e.catalog_epoch());
        let rd = restored.find_document("pper").unwrap();
        assert_eq!(restored.catalog().cached_extensions(rd), 2);
        let got = restored.answer(rd, &q).unwrap();
        assert_eq!(got.nodes, want.nodes, "bit-identical, not approximate");
        assert_eq!(got.description, want.description);
        assert_eq!(got.stats.materializations, 0, "restored cache is warm");
        assert_eq!(restored.stats().materializations, 0);
    }

    /// The staleness regression of the store satellite: a snapshot taken
    /// *after* an invalidation reads the live cache and therefore cannot
    /// resurrect the evicted extensions.
    #[test]
    fn post_invalidate_snapshot_does_not_resurrect_extensions() {
        let (mut e, doc) = bonus_engine();
        e.warm(doc).unwrap();
        let before = e.snapshot();
        assert_eq!(before.extensions.len(), 2);
        e.invalidate(doc).unwrap();
        let after = e.snapshot();
        assert!(after.extensions.is_empty(), "eviction is durable");
        assert!(after.epoch > before.epoch, "epoch records the mutation");
        let restored = Engine::from_snapshot(after).unwrap();
        let rd = restored.find_document("pper").unwrap();
        let a = restored
            .answer(rd, &p("IT-personnel//person/bonus[laptop]"))
            .unwrap();
        assert_eq!(
            a.stats.materializations, 1,
            "restored engine re-materializes instead of resurrecting"
        );
    }

    #[test]
    fn snapshot_file_round_trip_and_typed_corruption_errors() {
        let (e, doc) = bonus_engine();
        e.warm(doc).unwrap();
        let path = std::env::temp_dir().join(format!(
            "pxv-engine-snap-{}-{:?}.pxv",
            std::process::id(),
            std::thread::current().id()
        ));
        let bytes = e.snapshot_to(&path).unwrap();
        assert!(bytes > 0);
        let restored = Engine::restore_from(&path).unwrap();
        let rd = restored.find_document("pper").unwrap();
        assert_eq!(restored.catalog().cached_extensions(rd), 2);
        // Truncate the file: restore must fail with a typed error.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = Engine::restore_from(&path).expect_err("truncated");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt { .. }
            ),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_snapshot_rejects_inconsistent_entries() {
        let (e, doc) = bonus_engine();
        e.warm(doc).unwrap();
        let mut snap = e.snapshot();
        snap.extensions[0].view = 99;
        let err = Engine::from_snapshot(snap).expect_err("dangling view index");
        assert!(matches!(err, StoreError::Invalid(_)), "{err}");
        let mut swapped = e.snapshot();
        swapped.extensions[0].view = 1 - swapped.extensions[0].view;
        let err = Engine::from_snapshot(swapped).expect_err("view/extension mismatch");
        assert!(matches!(err, StoreError::Invalid(_)), "{err}");
    }

    /// Review regression: an extension filed under the wrong *document*
    /// index (range-valid, view name matching) must be rejected, not
    /// silently served as another document's answers.
    #[test]
    fn from_snapshot_rejects_mismatched_document_association() {
        let mut e = Engine::new();
        let d1 = e
            .add_document("one", parse_pdocument("a[b[c]]").unwrap())
            .unwrap();
        let d2 = e
            .add_document("two", parse_pdocument("x[y]").unwrap())
            .unwrap();
        e.register_view(View::new("bs", p("a/b"))).unwrap();
        e.warm(d1).unwrap();
        e.warm(d2).unwrap();
        let mut snap = e.snapshot();
        let entry = snap
            .extensions
            .iter_mut()
            .find(|entry| entry.doc == 0)
            .expect("doc one has a cached extension");
        assert!(!entry.extension.results.is_empty(), "nonempty extension");
        entry.doc = 1; // mis-file doc one's extension under doc two
        let err = Engine::from_snapshot(snap).expect_err("mis-filed document");
        assert!(matches!(err, StoreError::Invalid(_)), "{err}");
    }

    /// The tentpole contract at engine level: editing a live document
    /// maintains its cached extensions (no eviction, no rematerialization
    /// on the next query) and post-edit answers are bit-identical to a
    /// cold engine built from the post-edit document.
    #[test]
    fn apply_edits_keeps_cache_warm_and_matches_cold_engine() {
        let (mut e, doc) = bonus_engine();
        e.warm(doc).unwrap();
        let q = p("IT-personnel//person/bonus[laptop]");
        let before = e.answer(doc, &q).unwrap();
        let epoch_before = e.catalog_epoch();

        // Reweigh the laptop branch (node 24 under mux 21) and relabel a
        // pda leaf: both localized inside one person.
        let report = e
            .apply_edits(
                doc,
                &[
                    Edit::SetProb {
                        node: NodeId(24),
                        prob: 0.45,
                    },
                    Edit::Relabel {
                        node: NodeId(31),
                        label: pxv_pxml::Label::new("tablet"),
                    },
                ],
            )
            .unwrap();
        assert_eq!(report.edits, 2);
        assert_eq!(report.extensions_maintained, 2, "both cached views kept");
        assert_eq!(report.delta_fallbacks, 0, "localized edits never fall back");
        assert_eq!(report.deltas_applied, 4, "2 edits × 2 extensions");
        assert!(e.catalog_epoch() > epoch_before, "epoch observes the edit");

        // The cache survived: answering re-materializes nothing.
        let after = e.answer(doc, &q).unwrap();
        assert_eq!(after.stats.materializations, 0, "cache stayed warm");
        assert_ne!(after.nodes, before.nodes, "the edit changed the answer");

        // Bit-identical to a cold engine built from the post-edit doc.
        let mut cold = Engine::new();
        let cd = cold
            .add_document("pper", (*e.document(doc).unwrap()).clone())
            .unwrap();
        cold.register_views([
            View::new("rick", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("bonuses", p("IT-personnel//person/bonus")),
        ])
        .unwrap();
        let want = cold.answer(cd, &q).unwrap();
        assert_eq!(after.nodes, want.nodes, "bit-identical, not approximate");
        assert_eq!(after.description, want.description);

        let stats = e.stats();
        assert_eq!(stats.edits_applied, 2);
        assert_eq!(stats.deltas_applied, 4);
        assert_eq!(stats.delta_fallbacks, 0);
        assert_eq!(
            stats.materializations, 2,
            "lifetime materializations stop at the initial warm-up"
        );
    }

    /// Edits are all-or-nothing: an invalid edit anywhere in the sequence
    /// leaves the document, the cache, and the counters untouched.
    #[test]
    fn apply_edits_is_transactional() {
        let (mut e, doc) = bonus_engine();
        e.warm(doc).unwrap();
        let before_text = e.document(doc).unwrap().to_string();
        let epoch = e.catalog_epoch();
        let err = e
            .apply_edits(
                doc,
                &[
                    Edit::Relabel {
                        node: NodeId(31),
                        label: pxv_pxml::Label::new("tablet"),
                    },
                    // Mux 21 holds 0.1 + 0.9: pushing one branch to 0.95
                    // overflows the mass.
                    Edit::SetProb {
                        node: NodeId(24),
                        prob: 0.95,
                    },
                ],
            )
            .expect_err("second edit must be rejected");
        assert!(matches!(err, EngineError::Edit(_)), "{err}");
        assert_eq!(
            e.document(doc).unwrap().to_string(),
            before_text,
            "first edit rolled back with the second"
        );
        assert_eq!(e.catalog_epoch(), epoch, "no epoch bump on failure");
        assert_eq!(e.stats().edits_applied, 0);
        assert_eq!(e.catalog().cached_extensions(doc), 2, "cache untouched");
        assert!(matches!(
            e.apply_edits(DocId(99), &[]).unwrap_err(),
            EngineError::UnknownDocument(_)
        ));
    }

    /// Inserting a new subtree surfaces the deterministically assigned
    /// fresh ids, and new match candidates appear in maintained answers.
    #[test]
    fn apply_edits_insert_reports_fresh_ids() {
        let (mut e, doc) = bonus_engine();
        e.warm(doc).unwrap();
        let next = e.document(doc).unwrap().next_fresh_id();
        let report = e
            .apply_edits(
                doc,
                &[Edit::InsertSubtree {
                    parent: NodeId(1),
                    prob: 1.0,
                    subtree: parse_pdocument("person[name[Zoe], bonus[laptop]]").unwrap(),
                }],
            )
            .unwrap();
        assert_eq!(report.inserted_roots, vec![next]);
        let a = e
            .answer(doc, &p("IT-personnel//person/bonus[laptop]"))
            .unwrap();
        assert_eq!(a.stats.materializations, 0, "maintained, not rebuilt");
        assert!(
            a.nodes.iter().any(|&(n, _)| n > next),
            "the grafted bonus is an answer"
        );
    }

    /// A snapshot taken after edits carries the post-edit state: restore
    /// round-trips both the documents and the maintained (still warm)
    /// extensions.
    #[test]
    fn snapshot_carries_post_edit_state() {
        let (mut e, doc) = bonus_engine();
        e.warm(doc).unwrap();
        e.apply_edits(
            doc,
            &[Edit::SetProb {
                node: NodeId(24),
                prob: 0.5,
            }],
        )
        .unwrap();
        let q = p("IT-personnel//person/bonus[laptop]");
        let want = e.answer(doc, &q).unwrap();
        let restored = Engine::from_snapshot(e.snapshot()).unwrap();
        let rd = restored.find_document("pper").unwrap();
        assert_eq!(
            restored.document(rd).unwrap().to_string(),
            e.document(doc).unwrap().to_string(),
            "post-edit document round-trips"
        );
        let got = restored.answer(rd, &q).unwrap();
        assert_eq!(got.nodes, want.nodes, "bit-identical post-edit answers");
        assert_eq!(got.stats.materializations, 0, "maintained cache restored");
        // Future inserts allocate the same fresh ids in both engines
        // (next_fresh_id is part of the snapshot).
        assert_eq!(
            restored.document(rd).unwrap().next_fresh_id(),
            e.document(doc).unwrap().next_fresh_id()
        );
    }

    /// Review regression: two `apply_edits` writers racing on the same
    /// document (plus concurrent queries) must leave the cache matching
    /// the final document — each writer edits its own clone of the
    /// latest epoch and publishes document, evicted slots, and
    /// maintained extensions together, so no interleaving can pin a
    /// stale extension.
    #[test]
    fn concurrent_apply_edits_keep_cache_consistent() {
        let (e, doc) = bonus_engine();
        e.warm(doc).unwrap();
        let ee = EpochEngine::new(e);
        let q = p("IT-personnel//person/bonus[laptop]");
        std::thread::scope(|scope| {
            // Two writers reweighing different mux branches of the same
            // document (commuting edits: the final document is the same
            // under either serialization), plus query traffic.
            for node in [NodeId(24), NodeId(8)] {
                let ee = &ee;
                scope.spawn(move || {
                    ee.update(|e| e.apply_edits(doc, &[Edit::SetProb { node, prob: 0.5 }]))
                        .unwrap();
                });
            }
            scope.spawn(|| {
                for _ in 0..20 {
                    let _ = ee.read().answer(doc, &q);
                }
            });
        });
        // The settled cache answers bit-identically to a cold engine
        // built from the final document, without re-materializing.
        let e = ee.read();
        let mut cold = Engine::new();
        let cd = cold
            .add_document("pper", (*e.document(doc).unwrap()).clone())
            .unwrap();
        cold.register_views([
            View::new("rick", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("bonuses", p("IT-personnel//person/bonus")),
        ])
        .unwrap();
        let got = e.answer(doc, &q).unwrap();
        assert_eq!(got.stats.materializations, 0, "cache settled warm");
        assert_eq!(got.nodes, cold.answer(cd, &q).unwrap().nodes);
        assert_eq!(e.stats().edits_applied, 2);
    }

    #[test]
    fn concurrent_cold_batch_single_flight() {
        // Many threads race for the same cold extension: exactly one
        // materialization may happen (single-flight), everyone shares it.
        let (e, doc) = bonus_engine();
        let q = p("IT-personnel//person/bonus[laptop]");
        let batch: Vec<_> = (0..32).map(|_| (doc, q.clone())).collect();
        let results = e.answer_batch_with(&batch, e.options(), 8);
        let total_mats: usize = results
            .iter()
            .map(|r| r.as_ref().unwrap().stats.materializations)
            .sum();
        assert_eq!(total_mats, 1, "exactly one query materialized");
        assert_eq!(e.stats().materializations, 1, "no duplicate work");
        assert_eq!(e.stats().cache_hits, 31);
        assert_eq!(e.catalog().cached_extensions(doc), 1);
    }

    #[test]
    fn epoch_readers_keep_their_snapshot() {
        let (engine, doc) = bonus_engine();
        let q = p("IT-personnel//person/bonus");
        let ee = EpochEngine::new(engine);
        let before = ee.read();
        let baseline = before.answer(doc, &q).unwrap().nodes;
        assert_eq!(ee.epoch(), 0);

        // Publish epoch 1: delete the first person under the root.
        let victim = {
            let pdoc = before.document(doc).unwrap();
            let root = pdoc.root();
            *pdoc.children(root).first().unwrap()
        };
        ee.update(|e| e.apply_edits(doc, &[Edit::DeleteSubtree { node: victim }]))
            .unwrap();
        assert_eq!(ee.epoch(), 1);

        // The pre-publish snapshot still answers the pre-edit state,
        // bit-identically; the new epoch answers the post-edit state.
        assert_eq!(before.answer(doc, &q).unwrap().nodes, baseline);
        let after = ee.read().answer(doc, &q).unwrap().nodes;
        assert_ne!(after, baseline, "the edit changed the answer");
        let mut cold = Engine::new();
        let cd = cold
            .add_document("pper", (*ee.read().document(doc).unwrap()).clone())
            .unwrap();
        cold.register_views([
            View::new("rick", p("IT-personnel//person[name/Rick]/bonus")),
            View::new("bonuses", p("IT-personnel//person/bonus")),
        ])
        .unwrap();
        assert_eq!(
            after,
            cold.answer(cd, &q).unwrap().nodes,
            "published epoch bit-identical to a cold post-edit engine"
        );
    }

    #[test]
    fn failed_update_publishes_nothing() {
        let (engine, _) = bonus_engine();
        let ee = EpochEngine::new(engine);
        let err: Result<(), EngineError> = ee.update(|e| {
            e.set_cache_budget(1); // mutates the doomed clone only
            Err(EngineError::DuplicateView("x".into()))
        });
        assert!(err.is_err());
        assert_eq!(ee.epoch(), 0, "no epoch published on Err");
        assert_eq!(ee.read().cache_budget(), u64::MAX, "clone was discarded");
    }

    #[test]
    fn panicking_update_is_contained_and_recovered() {
        let (engine, doc) = bonus_engine();
        let q = p("IT-personnel//person/bonus[laptop]");
        let ee = EpochEngine::new(engine);
        let baseline = ee.read().answer(doc, &q).unwrap().nodes;
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), EngineError> = ee.update(|_| panic!("injected mid-update panic"));
        }));
        assert!(panicked.is_err());
        // The poisoned writer mutex recovers; the published epoch never
        // saw the half-applied clone; later writers still publish.
        assert_eq!(ee.epoch(), 0);
        assert_eq!(ee.read().answer(doc, &q).unwrap().nodes, baseline);
        ee.update(|e| {
            e.add_document("fresh", parse_pdocument("a[b]").unwrap())
                .map(|_| ())
        })
        .unwrap();
        assert_eq!(ee.epoch(), 1);
        assert_eq!(ee.read().document_count(), 2);
    }

    #[test]
    fn readers_do_not_block_on_a_slow_writer() {
        use std::sync::atomic::AtomicBool;
        let (engine, doc) = bonus_engine();
        let q = p("IT-personnel//person/bonus");
        let ee = EpochEngine::new(engine);
        let baseline = ee.read().answer(doc, &q).unwrap().nodes;
        let in_prepare = AtomicBool::new(false);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                ee.update(|e| {
                    in_prepare.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    e.add_document("held", parse_pdocument("a[b]").unwrap())
                        .map(|_| ())
                })
                .unwrap();
            });
            while !in_prepare.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // The writer is parked mid-prepare; a read must complete now,
            // against the still-published epoch 0.
            let nodes = ee.read().answer(doc, &q).unwrap().nodes;
            assert_eq!(nodes, baseline);
            assert_eq!(ee.epoch(), 0, "nothing published yet");
            release.store(true, Ordering::SeqCst);
        });
        assert_eq!(ee.epoch(), 1);
        assert_eq!(ee.read().document_count(), 2);
    }

    /// Invalidation and budget changes are writers like any other: each
    /// publishes exactly one epoch, and a reader holding the previous
    /// epoch keeps its warm cache (snapshot isolation).
    #[test]
    fn invalidate_and_budget_publish_an_epoch_and_spare_old_readers() {
        let (engine, doc) = bonus_engine();
        let ee = EpochEngine::new(engine);
        ee.read().warm(doc).unwrap();
        let before = ee.read();
        let n = ee.update(|e| e.invalidate(doc)).unwrap();
        assert_eq!(n, 2, "both warm extensions dropped in the new epoch");
        assert_eq!(ee.epoch(), 1, "INVALIDATE publishes one epoch");
        assert_eq!(ee.read().catalog().cached_extensions(doc), 0);
        assert_eq!(before.catalog().cached_extensions(doc), 2, "old epoch kept");

        ee.read().warm(doc).unwrap();
        let before = ee.read();
        ee.update(|e| {
            e.set_cache_budget(1);
            Ok::<_, EngineError>(())
        })
        .unwrap();
        assert_eq!(ee.epoch(), 2, "BUDGET publishes one epoch");
        assert_eq!(ee.read().catalog().cached_extensions(doc), 0);
        assert_eq!(ee.read().cache_budget(), 1);
        assert_eq!(before.catalog().cached_extensions(doc), 2, "old epoch kept");
        assert_eq!(before.cache_budget(), u64::MAX);
    }

    #[test]
    fn traced_answers_form_a_span_tree_and_stay_bit_identical() {
        let (mut e, doc) = bonus_engine();
        let q = p("IT-personnel//person/bonus");
        let plain = e.answer(doc, &q).unwrap();
        // Re-warm is irrelevant here: the second answer hits the cache,
        // so the traced run sees a "probe" hit and no materialization —
        // invalidate first so the cold path (probe → materialize) shows.
        e.invalidate(doc).unwrap();

        let ctx = pxv_obs::TraceContext::with_flight();
        let trace_id = ctx.trace_id();
        let flight = ctx.flight().unwrap().clone();
        let traced = {
            let _guard = ctx.install();
            e.answer_with(doc, &q, &QueryOptions::new().trace(true))
                .unwrap()
        };
        assert_eq!(traced.nodes, plain.nodes, "tracing must not change answers");

        let records = flight.records();
        let trees = pxv_obs::trace::build_trees(&records);
        assert_eq!(trees.len(), 1, "one request, one trace");
        let tree = &trees[0];
        assert_eq!(tree.trace_id, trace_id);
        assert_eq!(tree.roots.len(), 1, "the answer span is the sole root");
        let root = &tree.roots[0];
        assert_eq!(root.record.name, "answer");
        let child_names: Vec<&str> = root.children.iter().map(|c| c.record.name).collect();
        assert!(child_names.contains(&"plan"), "children: {child_names:?}");
        assert!(child_names.contains(&"probe"), "children: {child_names:?}");
        assert!(child_names.contains(&"eval"), "children: {child_names:?}");
        for child in &root.children {
            assert_eq!(child.record.parent_id, root.record.span_id);
            assert_eq!(child.record.trace_id, trace_id);
        }
        // The lower layers' spans nest where the causal chain says: a
        // cold probe contains the rewrite layer's materialization.
        let probe = root
            .children
            .iter()
            .find(|c| c.record.name == "probe")
            .unwrap();
        assert!(
            probe
                .children
                .iter()
                .any(|c| c.record.name == "materialize"),
            "cold probe nests the materialize span"
        );
    }

    #[test]
    fn profiled_answers_stay_bit_identical_and_account_for_their_time() {
        let mut e = Engine::new();
        let doc = e
            .add_document("p", pxv_pxml::generators::personnel(50, 3, 9).0)
            .unwrap();
        e.register_view(View::new("v2BON", p("IT-personnel//person/bonus")))
            .unwrap();
        let q = p("IT-personnel//person/bonus[laptop]");
        let plain = e.answer(doc, &q).unwrap(); // warms the cache

        let off = e.answer_with(doc, &q, &QueryOptions::new().profile(false));
        assert!(
            off.unwrap().profile.is_none(),
            "profile=false attaches no breakdown"
        );

        // Aggregate a loop so one preempted query cannot dominate the
        // ratio of the stage sum to the independently measured total.
        let profiled = QueryOptions::new().profile(true);
        let (mut stage_sum, mut total_sum) = (0u64, 0u64);
        for _ in 0..50 {
            let answer = e.answer_with(doc, &q, &profiled).unwrap();
            assert_eq!(
                answer.nodes, plain.nodes,
                "profiling must not change answers"
            );
            let profile = answer.profile.expect("profile=true attaches a breakdown");
            assert!(profile.total_nanos > 0, "the total is measured");
            assert_eq!(profile.epoch, e.catalog_epoch());
            stage_sum += profile.stage_nanos_sum();
            total_sum += profile.total_nanos;
        }
        let ratio = stage_sum as f64 / total_sum as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "stages must sum to within 10% of the total, got {ratio:.3}"
        );
    }

    #[test]
    fn batch_workers_join_the_callers_trace() {
        let (e, doc) = bonus_engine();
        let queries: Vec<_> = (0..8)
            .map(|_| (doc, p("IT-personnel//person/bonus")))
            .collect();
        let ctx = pxv_obs::TraceContext::with_flight();
        let trace_id = ctx.trace_id();
        let flight = ctx.flight().unwrap().clone();
        let results = {
            let _guard = ctx.install();
            e.answer_batch_with(&queries, &QueryOptions::new(), 4)
        };
        assert!(results.iter().all(Result::is_ok));
        let records = flight.records();
        let answers = records.iter().filter(|r| r.name == "answer").count();
        assert_eq!(answers, 8, "every worker-answered query is traced");
        assert!(
            records.iter().all(|r| r.trace_id == trace_id),
            "workers re-install the caller's context"
        );
        // Without an ambient context (and with the recorder off) the
        // same batch records nothing — the disabled path stays inert.
        let quiet = pxv_obs::TraceContext::with_flight();
        let quiet_flight = quiet.flight().unwrap().clone();
        drop(quiet); // never installed
        e.answer_batch_with(&queries, &QueryOptions::new(), 4);
        assert!(quiet_flight.records().is_empty());
    }
}
