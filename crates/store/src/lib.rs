//! # pxv-store — persistent binary snapshots for warm restarts
//!
//! The engine (`pxv-engine`) and the `prxd` serving layer keep every
//! p-document, view and memoized extension in memory; a restart threw
//! away exactly the materialization work the view-based answering scheme
//! exists to amortize. This crate makes that state durable: a versioned,
//! checksummed binary [`Snapshot`] of documents, views, the
//! materialized-extension cache and the catalog epoch, written
//! atomically (write-temp-then-rename) and restored **bit-identically**
//! — `f64` probabilities travel as raw IEEE-754 bits, so a restored
//! engine's answers are `==` to the ones the snapshotted engine gave.
//!
//! Interned [`pxv_pxml::Symbol`] ids are process-local, so the codec
//! never writes them: every label is an index into a spelling table that
//! is re-interned (and remapped) on load. See [`codec`] for the format
//! conventions and [`snapshot`] for the on-disk layout.
//!
//! Std-only, like the rest of the workspace: no serialization
//! dependencies, no unsafe.
//!
//! ```
//! use pxv_store::{Snapshot, Store};
//! use pxv_pxml::text::parse_pdocument;
//!
//! let dir = std::env::temp_dir().join(format!("pxv-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir).unwrap();
//! let snapshot = Snapshot {
//!     documents: vec![("hr".into(), parse_pdocument("a[mux(0.4: b[c], 0.6: b)]").unwrap())],
//!     ..Snapshot::default()
//! };
//! store.save(&snapshot).unwrap();
//! let back = store.load().unwrap();
//! assert_eq!(back.documents[0].0, "hr");
//! assert_eq!(back.documents[0].1.to_string(), snapshot.documents[0].1.to_string());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]

pub mod codec;
pub mod columnar;
mod error;
pub mod snapshot;

pub use error::StoreError;
pub use snapshot::{
    decode_snapshot, decode_snapshot_lazy, encode_snapshot, encode_snapshot_v2, ExtSectionRef,
    ExtensionEntry, LazyBody, LazySection, LazySnapshot, Snapshot, MAGIC, MIN_VERSION, VERSION,
};

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File name of the engine snapshot inside a [`Store`] directory.
pub const SNAPSHOT_FILE: &str = "engine.pxv";

/// Writes `snapshot` to `path` **atomically**: the bytes go to a
/// temporary sibling file first (same directory, so the rename cannot
/// cross filesystems), are fsync'd, and only then renamed over `path`.
/// A crash mid-write leaves either the old snapshot or none — never a
/// torn file. Returns the number of bytes written.
pub fn write_snapshot(path: impl AsRef<Path>, snapshot: &Snapshot) -> Result<u64, StoreError> {
    let mut span = pxv_obs::Span::enter("snapshot_write");
    let path = path.as_ref();
    let bytes = encode_snapshot(snapshot);
    span.record("bytes", bytes.len() as u64);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| StoreError::Invalid(format!("`{}` has no file name", path.display())))?;
    // The temp name must be unique per *writer*, not just per process:
    // two threads saving the same path concurrently (e.g. two `SAVE`
    // requests on the server's worker pool) must never interleave into
    // one temp file — each renames its own complete image, last one
    // wins, and the target is a valid snapshot either way.
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = {
        let mut name = std::ffi::OsString::from(".");
        name.push(file_name);
        name.push(format!(
            ".tmp.{}.{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        match dir {
            Some(d) => d.join(name),
            None => PathBuf::from(name),
        }
    };
    let result = (|| {
        let mut f = fs::File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
        f.write_all(&bytes).map_err(|e| StoreError::io(&tmp, e))?;
        f.sync_all().map_err(|e| StoreError::io(&tmp, e))?;
        fs::rename(&tmp, path).map_err(|e| StoreError::io(path, e))
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result.map(|()| bytes.len() as u64)
}

/// Reads and decodes a snapshot file.
pub fn read_snapshot(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
    let mut span = pxv_obs::Span::enter("snapshot_read");
    let path = path.as_ref();
    let bytes = fs::read(path).map_err(|e| StoreError::io(path, e))?;
    span.record("bytes", bytes.len() as u64);
    decode_snapshot(&bytes)
}

/// Reads a snapshot file **lazily**: the section index, documents,
/// views and metadata are decoded and verified, while v3 extension
/// bodies stay encoded until first probe (see
/// [`snapshot::decode_snapshot_lazy`]).
pub fn read_snapshot_lazy(path: impl AsRef<Path>) -> Result<LazySnapshot, StoreError> {
    let mut span = pxv_obs::Span::enter("snapshot_read_lazy");
    let path = path.as_ref();
    let bytes = fs::read(path).map_err(|e| StoreError::io(path, e))?;
    span.record("bytes", bytes.len() as u64);
    decode_snapshot_lazy(bytes)
}

/// A snapshot directory: the durable home of one engine's state
/// (`<dir>/engine.pxv`).
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        Ok(Store { dir })
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the engine snapshot file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Whether a snapshot file exists.
    pub fn has_snapshot(&self) -> bool {
        self.snapshot_path().is_file()
    }

    /// Saves a snapshot atomically; returns the bytes written.
    pub fn save(&self, snapshot: &Snapshot) -> Result<u64, StoreError> {
        write_snapshot(self.snapshot_path(), snapshot)
    }

    /// Loads the snapshot.
    pub fn load(&self) -> Result<Snapshot, StoreError> {
        read_snapshot(self.snapshot_path())
    }

    /// Loads the snapshot lazily (extension bodies decode on first
    /// probe).
    pub fn load_lazy(&self) -> Result<LazySnapshot, StoreError> {
        read_snapshot_lazy(self.snapshot_path())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_pxml::text::parse_pdocument;
    use pxv_rewrite::view::ProbExtension;
    use pxv_rewrite::View;
    use pxv_tpq::parse::parse_pattern;

    fn sample_snapshot() -> Snapshot {
        let pdoc = parse_pdocument("a[mux(0.4: b[c], 0.6: b)]").unwrap();
        let view = View::new("bs", parse_pattern("a/b").unwrap());
        let ext = ProbExtension::materialize(&pdoc, &view);
        Snapshot {
            documents: vec![("hr".into(), pdoc)],
            views: vec![view],
            extensions: vec![ExtensionEntry {
                doc: 0,
                view: 0,
                extension: ext,
                hits: 5,
                rebuild_nanos: 1_234,
            }],
            epoch: 7,
            budget: 1 << 20,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample_snapshot();
        let bytes = encode_snapshot(&s);
        let back = decode_snapshot(&bytes).expect("round trip");
        assert_eq!(back.documents.len(), 1);
        assert_eq!(back.documents[0].0, "hr");
        assert_eq!(
            back.documents[0].1.to_string(),
            s.documents[0].1.to_string()
        );
        assert_eq!(back.views[0].name, "bs");
        assert_eq!(
            back.views[0].pattern.canonical_key(),
            s.views[0].pattern.canonical_key()
        );
        assert_eq!(back.epoch, 7);
        assert_eq!(back.budget, 1 << 20);
        assert_eq!(back.extensions[0].hits, 5);
        assert_eq!(back.extensions[0].rebuild_nanos, 1_234);
        let (e1, e2) = (&s.extensions[0].extension, &back.extensions[0].extension);
        assert_eq!(e1.results.len(), e2.results.len());
        for (r1, r2) in e1.results.iter().zip(&e2.results) {
            assert_eq!(r1.ext_root, r2.ext_root);
            assert_eq!(r1.orig, r2.orig);
            assert_eq!(r1.prob.to_bits(), r2.prob.to_bits(), "bit-identical");
        }
        // Determinism: re-encoding the decoded snapshot is byte-identical.
        assert_eq!(bytes, encode_snapshot(&back));
    }

    #[test]
    fn store_saves_and_loads() {
        let dir = std::env::temp_dir().join(format!("pxv-store-test-{}", std::process::id()));
        let store = Store::open(&dir).unwrap();
        assert!(!store.has_snapshot());
        let s = sample_snapshot();
        store.save(&s).unwrap();
        assert!(store.has_snapshot());
        let back = store.load().unwrap();
        assert_eq!(back.epoch, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Review regression: concurrent saves of the same path must each
    /// write their own temp file — whatever the interleaving, the target
    /// is always one writer's complete, valid snapshot.
    #[test]
    fn concurrent_saves_stay_atomic() {
        let dir = std::env::temp_dir().join(format!("pxv-store-conc-{}", std::process::id()));
        let store = Store::open(&dir).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = &store;
                scope.spawn(move || {
                    for _ in 0..4 {
                        store.save(&sample_snapshot()).unwrap();
                    }
                });
            }
        });
        let back = store
            .load()
            .expect("concurrent saves never tear the snapshot");
        assert_eq!(back.epoch, 7);
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != SNAPSHOT_FILE)
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("pxv-store-tmp-{}", std::process::id()));
        let store = Store::open(&dir).unwrap();
        store.save(&sample_snapshot()).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![SNAPSHOT_FILE.to_string()], "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
