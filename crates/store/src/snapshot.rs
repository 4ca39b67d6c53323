//! The snapshot container: a versioned, checksummed multi-section file
//! holding an engine's entire warm state.
//!
//! # On-disk layout (version 3)
//!
//! ```text
//! magic    8 bytes   "PXVSNAP\0"
//! version  u32       3 (1 and 2 still decode)
//! count    u32       number of sections (exactly 5)
//! section* :
//!   kind     u32     1=SYMBOLS 2=DOCUMENTS 3=VIEWS 4=EXTENSIONS 5=META
//!   length   u64     payload byte length
//!   checksum u64     FNV-1a 64 of the payload bytes
//!   payload  length bytes
//! ```
//!
//! Sections appear in ascending kind order, each exactly once; trailing
//! bytes after the last section are an error. Every label in every
//! section is an index into the SYMBOLS table (a list of spellings), so
//! the file carries no process-local interner ids — see
//! [`crate::codec`] for the remapping story.
//!
//! Version 3 re-lays the node-heavy payloads as **columns** (see
//! [`crate::columnar`]): DOCUMENTS stores each p-document as five
//! compressed per-node columns, and EXTENSIONS becomes a **section
//! directory** followed by independently framed, independently
//! checksummed columnar bodies:
//!
//! ```text
//! EXTENSIONS payload (v3):
//!   n            u32    number of cached extensions
//!   dir_checksum u64    FNV-1a 64 of the directory bytes
//!   directory    n × 40 bytes:
//!     doc u32 · view u32 · hits u64 · rebuild_nanos u64
//!     body_len u64 · body_checksum u64
//!   bodies       concatenated columnar extension bodies
//! ```
//!
//! The directory is what makes **lazy restore** possible:
//! [`decode_snapshot_lazy`] verifies the directory checksum, records a
//! byte range per `(doc, view)` body, and returns without touching the
//! bodies — O(index) boot. Each body's checksum is then verified on
//! first probe ([`ExtSectionRef::decode`]), so corruption inside a
//! never-probed section surfaces as a typed error at query time while
//! every other section keeps serving. The eager [`decode_snapshot`]
//! verifies everything up front, including the whole-payload section
//! checksum the lazy path skips.
//!
//! Version 2 extended two v1 payloads: each EXTENSIONS entry carries
//! two extra `u64`s (`hits`, `rebuild_nanos` — the entry's learned
//! eviction-score components), and META grew from one `u64` (epoch) to
//! two (epoch, cache byte budget). Version-1 files decode with
//! unbounded budget and zeroed score components.

use crate::codec::{
    fnv1a, read_extension_body, read_pdocument, read_view, write_extension_body, write_pdocument,
    write_view, Reader, SymTable, Writer,
};
use crate::columnar::{
    read_extension_body_columnar, read_pdocument_columnar, write_extension_body_columnar,
    write_pdocument_columnar,
};
use crate::error::StoreError;
use pxv_pxml::{PDocument, Symbol};
use pxv_rewrite::view::ProbExtension;
use pxv_rewrite::View;
use std::fmt;
use std::sync::Arc;

/// The 8 magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"PXVSNAP\0";

/// The format version this build writes.
pub const VERSION: u32 = 3;

/// The oldest format version this build still reads.
pub const MIN_VERSION: u32 = 1;

const SECTION_SYMBOLS: u32 = 1;
const SECTION_DOCUMENTS: u32 = 2;
const SECTION_VIEWS: u32 = 3;
const SECTION_EXTENSIONS: u32 = 4;
const SECTION_META: u32 = 5;

/// Bytes per v3 extension-directory entry.
const DIR_ENTRY_BYTES: usize = 40;

fn section_name(kind: u32) -> &'static str {
    match kind {
        SECTION_SYMBOLS => "symbols",
        SECTION_DOCUMENTS => "documents",
        SECTION_VIEWS => "views",
        SECTION_EXTENSIONS => "extensions",
        SECTION_META => "meta",
        _ => "unknown",
    }
}

/// One cached extension inside a [`Snapshot`]: which document and view
/// (by index into the snapshot's own lists) it belongs to, plus the
/// materialized extension itself.
#[derive(Clone, Debug)]
pub struct ExtensionEntry {
    /// Index into [`Snapshot::documents`].
    pub doc: usize,
    /// Index into [`Snapshot::views`].
    pub view: usize,
    /// The materialized extension (restored bit-identically).
    pub extension: ProbExtension,
    /// Cache hits observed for this entry (eviction-score benefit; 0 in
    /// v1 files).
    pub hits: u64,
    /// Observed materialization cost in nanoseconds (eviction-score
    /// cost; 0 in v1 files).
    pub rebuild_nanos: u64,
}

/// A point-in-time image of an engine: documents, registered views, the
/// materialized-extension cache, and the catalog epoch the plan cache
/// was scoped to. This is the value the codec persists; converting an
/// `Engine` to/from it lives in `pxv-engine` (`Engine::snapshot` /
/// `Engine::from_snapshot`), keeping this crate engine-agnostic.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// `(name, p-document)` pairs in document-id order.
    pub documents: Vec<(String, PDocument)>,
    /// Registered views in registration order.
    pub views: Vec<View>,
    /// Cached (fully materialized) extensions, sorted by `(doc, view)`.
    pub extensions: Vec<ExtensionEntry>,
    /// The catalog epoch at snapshot time. Restoring adopts it, so a
    /// snapshot can never be mistaken for a newer catalog generation.
    pub epoch: u64,
    /// The extension-cache byte budget at snapshot time (`u64::MAX` =
    /// unbounded, and what v1 files decode to).
    pub budget: u64,
}

impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot {
            documents: Vec::new(),
            views: Vec::new(),
            extensions: Vec::new(),
            epoch: 0,
            budget: u64::MAX,
        }
    }
}

impl Snapshot {
    /// A short human-readable inventory (`3 doc(s), 2 view(s), …`).
    pub fn describe(&self) -> String {
        let budget = if self.budget == u64::MAX {
            "unbounded".to_string()
        } else {
            format!("{} B", self.budget)
        };
        format!(
            "{} doc(s), {} view(s), {} cached extension(s), epoch {}, budget {}",
            self.documents.len(),
            self.views.len(),
            self.extensions.len(),
            self.epoch,
            budget
        )
    }
}

/// Serializes a snapshot to bytes in the current format ([`VERSION`]).
/// Deterministic: equal snapshots encode to equal bytes.
pub fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    encode_snapshot_versioned(s, VERSION)
}

/// Serializes a snapshot in the legacy row-oriented version-2 format.
/// Kept for size comparisons (`tests/snapshot_columnar.rs`) and for
/// exercising the backward-compatibility decode paths; new files should
/// use [`encode_snapshot`].
pub fn encode_snapshot_v2(s: &Snapshot) -> Vec<u8> {
    encode_snapshot_versioned(s, 2)
}

fn encode_snapshot_versioned(s: &Snapshot, version: u32) -> Vec<u8> {
    assert!(
        (2..=VERSION).contains(&version),
        "cannot encode snapshot version {version}"
    );
    let mut t = SymTable::new();

    let mut documents = Writer::new();
    documents.put_u32(s.documents.len() as u32);
    for (name, pdoc) in &s.documents {
        documents.put_str(name);
        if version >= 3 {
            write_pdocument_columnar(&mut documents, pdoc, &mut t);
        } else {
            write_pdocument(&mut documents, pdoc, &mut t);
        }
    }

    let mut views = Writer::new();
    views.put_u32(s.views.len() as u32);
    for v in &s.views {
        write_view(&mut views, v, &mut t);
    }

    let mut extensions = Writer::new();
    if version >= 3 {
        // Directory + independently framed columnar bodies (the layout
        // lazy restore indexes into).
        let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(s.extensions.len());
        for e in &s.extensions {
            let mut body = Writer::new();
            write_extension_body_columnar(&mut body, &e.extension, &mut t);
            bodies.push(body.into_bytes());
        }
        let mut dir = Writer::new();
        for (e, body) in s.extensions.iter().zip(&bodies) {
            dir.put_u32(e.doc as u32);
            dir.put_u32(e.view as u32);
            dir.put_u64(e.hits);
            dir.put_u64(e.rebuild_nanos);
            dir.put_u64(body.len() as u64);
            dir.put_u64(fnv1a(body));
        }
        let dir = dir.into_bytes();
        extensions.put_u32(s.extensions.len() as u32);
        extensions.put_u64(fnv1a(&dir));
        for b in &dir {
            extensions.put_u8(*b);
        }
        for body in &bodies {
            for b in body {
                extensions.put_u8(*b);
            }
        }
    } else {
        extensions.put_u32(s.extensions.len() as u32);
        for e in &s.extensions {
            extensions.put_u32(e.doc as u32);
            extensions.put_u32(e.view as u32);
            extensions.put_u64(e.hits);
            extensions.put_u64(e.rebuild_nanos);
            write_extension_body(&mut extensions, &e.extension, &mut t);
        }
    }

    let mut meta = Writer::new();
    meta.put_u64(s.epoch);
    meta.put_u64(s.budget);

    // The symbol table is complete only now; it is nevertheless the
    // first section so decoders can resolve labels in one pass.
    let mut symbols = Writer::new();
    t.write(&mut symbols);

    let sections = [
        (SECTION_SYMBOLS, symbols.into_bytes()),
        (SECTION_DOCUMENTS, documents.into_bytes()),
        (SECTION_VIEWS, views.into_bytes()),
        (SECTION_EXTENSIONS, extensions.into_bytes()),
        (SECTION_META, meta.into_bytes()),
    ];
    let mut w = Writer::new();
    for b in MAGIC {
        w.put_u8(*b);
    }
    w.put_u32(version);
    w.put_u32(sections.len() as u32);
    let mut out = w.into_bytes();
    for (kind, payload) in sections {
        let mut header = Writer::new();
        header.put_u32(kind);
        header.put_u64(payload.len() as u64);
        header.put_u64(fnv1a(&payload));
        out.extend_from_slice(&header.into_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Reads magic + version + section count; leaves `r` at the first
/// section header.
fn read_container_header(r: &mut Reader<'_>) -> Result<u32, StoreError> {
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let n_sections = r.u32()?;
    if n_sections != 5 {
        return r.corrupt(format!("expected 5 sections, file declares {n_sections}"));
    }
    Ok(version)
}

/// Reads one section header, validating the kind and bounds-checking the
/// declared length. Returns `(payload_start, len, recorded_checksum)`
/// with `r` positioned at the payload.
fn read_section_header(
    r: &mut Reader<'_>,
    expected_kind: u32,
) -> Result<(usize, usize, u64), StoreError> {
    let kind = r.u32()?;
    if kind != expected_kind {
        return r.corrupt(format!(
            "expected section `{}`, found kind {kind}",
            section_name(expected_kind)
        ));
    }
    let len = r.u64()?;
    let recorded = r.u64()?;
    let len = usize::try_from(len)
        .ok()
        .filter(|&l| l <= r.remaining())
        .ok_or(StoreError::Truncated {
            at: r.pos(),
            needed: len as usize - r.remaining().min(len as usize),
        })?;
    Ok((r.pos(), len, recorded))
}

/// One parsed v3 extension-directory entry.
struct DirEntry {
    doc: usize,
    view: usize,
    hits: u64,
    rebuild_nanos: u64,
    body_len: usize,
    body_checksum: u64,
}

/// Parses and validates the v3 extensions directory: count, directory
/// checksum, per-entry doc/view bounds, and that the declared body
/// lengths exactly tile the rest of the section.
fn read_ext_directory(
    sr: &mut Reader<'_>,
    bytes: &[u8],
    n_docs: usize,
    n_views: usize,
) -> Result<Vec<DirEntry>, StoreError> {
    let n = sr.count(DIR_ENTRY_BYTES)?;
    let recorded = sr.u64()?;
    let dir_at = sr.pos();
    let dir_bytes = sr.take(n * DIR_ENTRY_BYTES)?;
    let found = fnv1a(dir_bytes);
    if found != recorded {
        return Err(StoreError::ChecksumMismatch {
            section: "extension directory",
            expected: recorded,
            found,
        });
    }
    let mut dr = Reader::new(&bytes[..dir_at + n * DIR_ENTRY_BYTES]);
    let _ = dr.take(dir_at).expect("prefix already read");
    let mut entries = Vec::with_capacity(n);
    let mut bodies_total: usize = 0;
    for _ in 0..n {
        let entry_at = dr.pos();
        let doc = dr.u32()? as usize;
        let view = dr.u32()? as usize;
        let hits = dr.u64()?;
        let rebuild_nanos = dr.u64()?;
        let body_len = dr.u64()?;
        let body_checksum = dr.u64()?;
        if doc >= n_docs {
            return Err(StoreError::Corrupt {
                at: entry_at,
                what: format!("extension references document {doc}"),
            });
        }
        if view >= n_views {
            return Err(StoreError::Corrupt {
                at: entry_at,
                what: format!("extension references view {view}"),
            });
        }
        let body_len = usize::try_from(body_len).map_err(|_| StoreError::Corrupt {
            at: entry_at,
            what: format!("implausible body length {body_len}"),
        })?;
        bodies_total = bodies_total
            .checked_add(body_len)
            .ok_or_else(|| StoreError::Corrupt {
                at: entry_at,
                what: "extension body lengths overflow".into(),
            })?;
        entries.push(DirEntry {
            doc,
            view,
            hits,
            rebuild_nanos,
            body_len,
            body_checksum,
        });
    }
    if bodies_total != sr.remaining() {
        return sr.corrupt(format!(
            "directory declares {bodies_total} body byte(s), section holds {}",
            sr.remaining()
        ));
    }
    Ok(entries)
}

/// Deserializes a snapshot, verifying magic, version, section table and
/// per-section checksums (for v3 additionally the extension directory
/// and every per-body checksum). Total: corrupted or truncated input of
/// any shape returns a typed [`StoreError`], never panics.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    let mut r = Reader::new(bytes);
    let version = read_container_header(&mut r)?;

    let mut symbols = Vec::new();
    let mut snapshot = Snapshot::default();
    for expected_kind in [
        SECTION_SYMBOLS,
        SECTION_DOCUMENTS,
        SECTION_VIEWS,
        SECTION_EXTENSIONS,
        SECTION_META,
    ] {
        let (payload_start, len, recorded) = read_section_header(&mut r, expected_kind)?;
        let computed = fnv1a(r.take(len)?);
        if computed != recorded {
            return Err(StoreError::ChecksumMismatch {
                section: section_name(expected_kind),
                expected: recorded,
                found: computed,
            });
        }
        // Re-parse the verified payload in place, then require the
        // section body to consume exactly its declared length.
        let mut sr = Reader::new(&bytes[..payload_start + len]);
        let _ = sr.take(payload_start).expect("prefix already read");
        match expected_kind {
            SECTION_SYMBOLS => symbols = SymTable::read(&mut sr)?,
            SECTION_DOCUMENTS => {
                let n = sr.count(4)?;
                for _ in 0..n {
                    let name = sr.string()?;
                    let pdoc = if version >= 3 {
                        read_pdocument_columnar(&mut sr, &symbols)?
                    } else {
                        read_pdocument(&mut sr, &symbols)?
                    };
                    snapshot.documents.push((name, pdoc));
                }
            }
            SECTION_VIEWS => {
                let n = sr.count(4)?;
                for _ in 0..n {
                    snapshot.views.push(read_view(&mut sr, &symbols)?);
                }
            }
            SECTION_EXTENSIONS if version >= 3 => {
                let entries = read_ext_directory(
                    &mut sr,
                    bytes,
                    snapshot.documents.len(),
                    snapshot.views.len(),
                )?;
                for e in entries {
                    let body_at = sr.pos();
                    let body = sr.take(e.body_len)?;
                    let found = fnv1a(body);
                    if found != e.body_checksum {
                        return Err(StoreError::Corrupt {
                            at: body_at,
                            what: format!(
                                "extension body checksum mismatch (doc {}, view {}): \
                                 recorded {:#018x}, computed {found:#018x}",
                                e.doc, e.view, e.body_checksum
                            ),
                        });
                    }
                    let view = snapshot.views[e.view].clone();
                    let mut br = Reader::new(&bytes[..body_at + e.body_len]);
                    let _ = br.take(body_at).expect("prefix already read");
                    let extension = read_extension_body_columnar(&mut br, &symbols, view)?;
                    if br.remaining() > 0 {
                        return br.corrupt(format!(
                            "{} trailing byte(s) in extension body",
                            br.remaining()
                        ));
                    }
                    snapshot.extensions.push(ExtensionEntry {
                        doc: e.doc,
                        view: e.view,
                        extension,
                        hits: e.hits,
                        rebuild_nanos: e.rebuild_nanos,
                    });
                }
            }
            SECTION_EXTENSIONS => {
                let n = sr.count(8)?;
                for _ in 0..n {
                    let doc = sr.u32()? as usize;
                    let view_idx = sr.u32()? as usize;
                    let (hits, rebuild_nanos) = if version >= 2 {
                        (sr.u64()?, sr.u64()?)
                    } else {
                        (0, 0)
                    };
                    if doc >= snapshot.documents.len() {
                        return sr.corrupt(format!("extension references document {doc}"));
                    }
                    let Some(view) = snapshot.views.get(view_idx) else {
                        return sr.corrupt(format!("extension references view {view_idx}"));
                    };
                    let extension = read_extension_body(&mut sr, &symbols, view.clone())?;
                    snapshot.extensions.push(ExtensionEntry {
                        doc,
                        view: view_idx,
                        extension,
                        hits,
                        rebuild_nanos,
                    });
                }
            }
            SECTION_META => {
                snapshot.epoch = sr.u64()?;
                snapshot.budget = if version >= 2 { sr.u64()? } else { u64::MAX };
            }
            _ => unreachable!("kind checked against expected_kind"),
        }
        if sr.remaining() > 0 {
            return sr.corrupt(format!(
                "section `{}` has {} undeclared trailing byte(s)",
                section_name(expected_kind),
                sr.remaining()
            ));
        }
    }
    if r.remaining() > 0 {
        return r.corrupt(format!("{} byte(s) after the last section", r.remaining()));
    }
    Ok(snapshot)
}

// ---------------------------------------------------------------------
// Lazy restore
// ---------------------------------------------------------------------

/// A handle to one undecoded columnar extension body inside a loaded v3
/// snapshot: the shared file bytes, the body's range, its recorded
/// checksum, and the re-interned symbol table needed to decode it.
///
/// [`ExtSectionRef::decode`] verifies the checksum and decodes on
/// demand — the fault path of a lazily restored engine.
#[derive(Clone)]
pub struct ExtSectionRef {
    bytes: Arc<[u8]>,
    start: usize,
    end: usize,
    checksum: u64,
    symbols: Arc<Vec<Symbol>>,
}

impl fmt::Debug for ExtSectionRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExtSectionRef")
            .field("start", &self.start)
            .field("end", &self.end)
            .field("checksum", &format_args!("{:#018x}", self.checksum))
            .finish_non_exhaustive()
    }
}

impl ExtSectionRef {
    /// Encoded body length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the body is empty (it never is in a well-formed file).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Absolute byte offset of the body inside the snapshot file.
    pub fn offset(&self) -> usize {
        self.start
    }

    /// Verifies the body checksum recorded in the section directory,
    /// then decodes the columnar body into an extension of `view`.
    /// Total: corruption anywhere in the body is a typed,
    /// offset-carrying [`StoreError`], never a panic.
    pub fn decode(&self, view: View) -> Result<ProbExtension, StoreError> {
        let body = &self.bytes[self.start..self.end];
        let found = fnv1a(body);
        if found != self.checksum {
            return Err(StoreError::Corrupt {
                at: self.start,
                what: format!(
                    "extension body checksum mismatch: recorded {:#018x}, computed {found:#018x}",
                    self.checksum
                ),
            });
        }
        let mut r = Reader::new(&self.bytes[..self.end]);
        let _ = r.take(self.start).expect("range validated at load");
        let ext = read_extension_body_columnar(&mut r, &self.symbols, view)?;
        if r.remaining() > 0 {
            return r.corrupt(format!(
                "{} trailing byte(s) in extension body",
                r.remaining()
            ));
        }
        Ok(ext)
    }
}

/// The body of one lazily restorable extension section.
#[derive(Debug)]
pub enum LazyBody {
    /// A v3 columnar body, decoded on first probe.
    Pending(ExtSectionRef),
    /// An already decoded extension (v1/v2 files have no per-body
    /// framing, so their entries arrive eager).
    Ready(Box<ProbExtension>),
}

/// One `(document, view)` extension section of a lazily loaded
/// snapshot.
#[derive(Debug)]
pub struct LazySection {
    /// Index into [`LazySnapshot::documents`].
    pub doc: usize,
    /// Index into [`LazySnapshot::views`].
    pub view: usize,
    /// Saved cache hits (eviction-score benefit).
    pub hits: u64,
    /// Saved materialization cost in nanoseconds (eviction-score cost).
    pub rebuild_nanos: u64,
    /// The body: a byte range to fault in, or an eager value.
    pub body: LazyBody,
}

/// A snapshot whose extension bodies stay encoded until first probe:
/// documents, views and metadata are decoded eagerly (they are needed
/// to serve at all), while each extension section is represented by a
/// checksummed byte range. Produced by [`decode_snapshot_lazy`];
/// consumed by `pxv-engine`'s `Engine::from_snapshot_lazy`.
#[derive(Debug)]
pub struct LazySnapshot {
    /// `(name, p-document)` pairs in document-id order.
    pub documents: Vec<(String, PDocument)>,
    /// Registered views in registration order.
    pub views: Vec<View>,
    /// One entry per cached extension, sorted by `(doc, view)`.
    pub sections: Vec<LazySection>,
    /// The catalog epoch at snapshot time.
    pub epoch: u64,
    /// The extension-cache byte budget at snapshot time.
    pub budget: u64,
}

impl LazySnapshot {
    /// A short human-readable inventory, flagging how many sections are
    /// still undecoded.
    pub fn describe(&self) -> String {
        let pending = self
            .sections
            .iter()
            .filter(|s| matches!(s.body, LazyBody::Pending(_)))
            .count();
        let budget = if self.budget == u64::MAX {
            "unbounded".to_string()
        } else {
            format!("{} B", self.budget)
        };
        format!(
            "{} doc(s), {} view(s), {} extension section(s) ({pending} pending), epoch {}, budget {}",
            self.documents.len(),
            self.views.len(),
            self.sections.len(),
            self.epoch,
            budget
        )
    }

    fn from_eager(snapshot: Snapshot) -> LazySnapshot {
        LazySnapshot {
            documents: snapshot.documents,
            views: snapshot.views,
            sections: snapshot
                .extensions
                .into_iter()
                .map(|e| LazySection {
                    doc: e.doc,
                    view: e.view,
                    hits: e.hits,
                    rebuild_nanos: e.rebuild_nanos,
                    body: LazyBody::Ready(Box::new(e.extension)),
                })
                .collect(),
            epoch: snapshot.epoch,
            budget: snapshot.budget,
        }
    }
}

/// Deserializes a snapshot **lazily**: magic, version, section table,
/// symbols, documents, views and metadata are decoded and verified as
/// in [`decode_snapshot`], but v3 extension bodies are only indexed —
/// the directory checksum is verified, each body's byte range and
/// recorded checksum are captured, and decoding is deferred to
/// [`ExtSectionRef::decode`]. Boot cost is O(index), not O(catalog).
///
/// v1/v2 files (no per-body framing) fall back to eager decoding and
/// return every section as [`LazyBody::Ready`].
pub fn decode_snapshot_lazy(bytes: Vec<u8>) -> Result<LazySnapshot, StoreError> {
    let bytes: Arc<[u8]> = Arc::from(bytes);
    let mut r = Reader::new(&bytes);
    let version = read_container_header(&mut r)?;
    if version < 3 {
        return Ok(LazySnapshot::from_eager(decode_snapshot(&bytes)?));
    }

    let mut symbols = Arc::new(Vec::new());
    let mut snapshot = LazySnapshot {
        documents: Vec::new(),
        views: Vec::new(),
        sections: Vec::new(),
        epoch: 0,
        budget: u64::MAX,
    };
    for expected_kind in [
        SECTION_SYMBOLS,
        SECTION_DOCUMENTS,
        SECTION_VIEWS,
        SECTION_EXTENSIONS,
        SECTION_META,
    ] {
        let (payload_start, len, recorded) = read_section_header(&mut r, expected_kind)?;
        if expected_kind != SECTION_EXTENSIONS {
            // Eager sections are verified up front, exactly as in the
            // eager decoder.
            let computed = fnv1a(r.take(len)?);
            if computed != recorded {
                return Err(StoreError::ChecksumMismatch {
                    section: section_name(expected_kind),
                    expected: recorded,
                    found: computed,
                });
            }
        } else {
            // The whole-payload checksum would force reading every body;
            // the directory checksum (verified below) plus the per-body
            // checksums (verified at fault time) cover the same bytes.
            let _ = r.take(len)?;
        }
        let mut sr = Reader::new(&bytes[..payload_start + len]);
        let _ = sr.take(payload_start).expect("prefix already read");
        match expected_kind {
            SECTION_SYMBOLS => symbols = Arc::new(SymTable::read(&mut sr)?),
            SECTION_DOCUMENTS => {
                let n = sr.count(4)?;
                for _ in 0..n {
                    let name = sr.string()?;
                    let pdoc = read_pdocument_columnar(&mut sr, &symbols)?;
                    snapshot.documents.push((name, pdoc));
                }
            }
            SECTION_VIEWS => {
                let n = sr.count(4)?;
                for _ in 0..n {
                    snapshot.views.push(read_view(&mut sr, &symbols)?);
                }
            }
            SECTION_EXTENSIONS => {
                let entries = read_ext_directory(
                    &mut sr,
                    &bytes,
                    snapshot.documents.len(),
                    snapshot.views.len(),
                )?;
                for e in entries {
                    let body_at = sr.pos();
                    let _ = sr.take(e.body_len).expect("lengths tiled by directory");
                    snapshot.sections.push(LazySection {
                        doc: e.doc,
                        view: e.view,
                        hits: e.hits,
                        rebuild_nanos: e.rebuild_nanos,
                        body: LazyBody::Pending(ExtSectionRef {
                            bytes: Arc::clone(&bytes),
                            start: body_at,
                            end: body_at + e.body_len,
                            checksum: e.body_checksum,
                            symbols: Arc::clone(&symbols),
                        }),
                    });
                }
            }
            SECTION_META => {
                snapshot.epoch = sr.u64()?;
                snapshot.budget = sr.u64()?;
            }
            _ => unreachable!("kind checked against expected_kind"),
        }
        if sr.remaining() > 0 {
            return sr.corrupt(format!(
                "section `{}` has {} undeclared trailing byte(s)",
                section_name(expected_kind),
                sr.remaining()
            ));
        }
    }
    if r.remaining() > 0 {
        return r.corrupt(format!("{} byte(s) after the last section", r.remaining()));
    }
    Ok(snapshot)
}
