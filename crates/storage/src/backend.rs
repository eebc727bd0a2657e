//! Pluggable durable-storage backends and crash-fault injection.
//!
//! A durable [`crate::engine::StoredTable`] persists itself into a [`Dir`]:
//! a flat namespace of files supporting atomic whole-file replacement
//! (manifest publication), append (the WAL), and enumeration (orphan
//! cleanup after a crash). Two real implementations ship:
//!
//! * [`FsDir`] — a directory on the local filesystem; `write_atomic` is
//!   write-to-temp + rename, the classic publish primitive;
//! * [`MemDir`] — an in-process map, for tests and benchmarks that need
//!   thousands of tables without touching disk.
//!
//! [`CrashDir`] wraps a [`MemDir`] with the fault-injection model the
//! crash-recovery suite is built on: the engine calls
//! [`Dir::crash_point`] at every durability-ordering boundary, and an
//! armed `CrashDir` *captures the durable image at that instant* and
//! black-holes every later write — exactly what a power cut after that
//! point would leave on disk. The test then reopens the captured image
//! with [`crate::engine::StoredTable::open`] and compares scans against
//! an oracle that never crashed.

use crate::encoding::DecodeError;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The durability-ordering boundaries where the engine announces "a crash
/// here would be interesting" (see [`Dir::crash_point`]). Each point is a
/// distinct on-disk intermediate state the recovery path must handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// An ingest batch is in the WAL but the in-memory snapshot that
    /// acknowledges it was never published. Recovery must replay it.
    AfterWalAppend,
    /// A repartition has written every rebuilt partition file but not the
    /// manifest. Recovery must serve the pre-move snapshot untouched.
    BeforeSnapshotPublish,
    /// A repartition has written only *some* of its rebuilt partition
    /// files. Recovery must serve the pre-move snapshot untouched.
    MidFold,
    /// The new manifest is published but the superseded WAL and partition
    /// files were not yet removed. Recovery must serve the post-move
    /// snapshot and ignore (and clean) the orphans.
    MidTruncate,
}

impl CrashPoint {
    /// Every injection point, in write-path order.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::AfterWalAppend,
        CrashPoint::MidFold,
        CrashPoint::BeforeSnapshotPublish,
        CrashPoint::MidTruncate,
    ];
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CrashPoint::AfterWalAppend => "after-wal-append",
            CrashPoint::BeforeSnapshotPublish => "before-snapshot-publish",
            CrashPoint::MidFold => "mid-fold",
            CrashPoint::MidTruncate => "mid-truncate",
        };
        f.write_str(s)
    }
}

/// Errors surfaced by the durable write path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying backend I/O failure.
    Io(String),
    /// A persisted structure (manifest, partition file, WAL record past
    /// the recoverable tail) failed validation.
    Corrupt(String),
    /// An ingest batch that does not fit the schema or references rows
    /// that do not exist.
    InvalidBatch(String),
    /// A fleet-level route to a table that is not registered.
    UnknownTable(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(m) => write!(f, "storage I/O error: {m}"),
            StorageError::Corrupt(m) => write!(f, "corrupt persisted state: {m}"),
            StorageError::InvalidBatch(m) => write!(f, "invalid ingest batch: {m}"),
            StorageError::UnknownTable(t) => write!(f, "unknown table: {t}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> StorageError {
        StorageError::Io(e.to_string())
    }
}

impl From<DecodeError> for StorageError {
    fn from(e: DecodeError) -> StorageError {
        StorageError::Corrupt(e.0)
    }
}

/// A flat durable namespace: the only storage interface the engine knows.
///
/// Implementations must make `write_atomic` all-or-nothing (a reader — or
/// a recovery — sees either the old content or the new, never a prefix)
/// and `append` ordered (bytes appear in append order; a crash may keep
/// any *prefix* of an append, which is exactly the torn-tail case the WAL
/// format recovers from).
pub trait Dir: Send + Sync {
    /// Read a whole file; `None` if it does not exist.
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;
    /// Replace a file's content atomically (publish primitive).
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Append bytes to a file, creating it if missing.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Remove a file; succeeds silently if it does not exist.
    fn remove(&self, name: &str) -> io::Result<()>;
    /// Enumerate every file name in the namespace.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Fault-injection hook: the engine calls this at every durability
    /// boundary in [`CrashPoint`]. Real backends ignore it; a
    /// [`CrashDir`] armed for `point` snapshots its durable image here
    /// and drops every subsequent write.
    fn crash_point(&self, point: CrashPoint) {
        let _ = point;
    }
}

/// An in-memory [`Dir`]: a mutex-guarded map from name to bytes.
#[derive(Debug, Default)]
pub struct MemDir {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemDir {
    /// An empty in-memory directory.
    pub fn new() -> MemDir {
        MemDir::default()
    }

    /// A directory pre-populated from a captured image (see
    /// [`CrashDir::image_dir`]).
    pub fn from_image(image: BTreeMap<String, Vec<u8>>) -> MemDir {
        MemDir {
            files: Mutex::new(image),
        }
    }

    /// A deep copy of the current contents.
    pub fn image(&self) -> BTreeMap<String, Vec<u8>> {
        self.files.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Dir for MemDir {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self
            .files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self
            .files
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect())
    }
}

/// A [`Dir`] rooted at a filesystem directory. File names are flat (no
/// separators); `write_atomic` stages into a dot-temp sibling and renames
/// over the target, which is atomic on POSIX filesystems.
#[derive(Debug)]
pub struct FsDir {
    root: PathBuf,
}

impl FsDir {
    /// Open (creating if needed) a directory-backed store at `root`.
    pub fn open(root: impl AsRef<Path>) -> io::Result<FsDir> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(FsDir { root })
    }

    fn path(&self, name: &str) -> io::Result<PathBuf> {
        if name.is_empty() || name.contains(['/', '\\']) || name.starts_with('.') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid store file name {name:?}"),
            ));
        }
        Ok(self.root.join(name))
    }
}

impl Dir for FsDir {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)?) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let target = self.path(name)?;
        let tmp = self.root.join(format!(".{name}.tmp"));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &target)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name)?)?;
        f.write_all(bytes)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)?) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if !name.starts_with('.') {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// A fault-injecting [`Dir`] over a [`MemDir`].
///
/// Arm it with [`CrashDir::arm`]; when the engine reaches that
/// [`CrashPoint`], the wrapper captures the durable image as it exists at
/// that instant and silently discards every later mutation — the process
/// keeps running (the engine's in-memory state stays coherent), but
/// nothing it does after the "crash" reaches storage. The test then
/// reopens [`CrashDir::image_dir`] as the post-power-cut state.
#[derive(Debug, Default)]
pub struct CrashDir {
    inner: MemDir,
    armed: Mutex<Option<CrashPoint>>,
    image: Mutex<Option<BTreeMap<String, Vec<u8>>>>,
}

impl CrashDir {
    /// An empty, un-armed crash-injecting directory.
    pub fn new() -> CrashDir {
        CrashDir::default()
    }

    /// Arm the next occurrence of `point` (replacing any previous arming).
    pub fn arm(&self, point: CrashPoint) {
        *self.armed.lock().unwrap_or_else(|e| e.into_inner()) = Some(point);
    }

    /// True once an armed crash point has fired.
    pub fn crashed(&self) -> bool {
        self.image
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// The durable state a reboot would find: the image captured at the
    /// crash if one fired, the live contents otherwise.
    pub fn image_dir(&self) -> MemDir {
        let image = self
            .image
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or_else(|| self.inner.image());
        MemDir::from_image(image)
    }
}

impl Dir for CrashDir {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if self.crashed() {
            return Ok(());
        }
        self.inner.write_atomic(name, bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if self.crashed() {
            return Ok(());
        }
        self.inner.append(name, bytes)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        if self.crashed() {
            return Ok(());
        }
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn crash_point(&self, point: CrashPoint) {
        let armed = *self.armed.lock().unwrap_or_else(|e| e.into_inner());
        if armed == Some(point) && !self.crashed() {
            let mut image = self.image.lock().unwrap_or_else(|e| e.into_inner());
            *image = Some(self.inner.image());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdir_roundtrip_and_append() {
        let d = MemDir::new();
        d.write_atomic("a", b"one").unwrap();
        d.append("a", b"two").unwrap();
        d.append("b", b"fresh").unwrap();
        assert_eq!(d.read("a").unwrap().unwrap(), b"onetwo");
        assert_eq!(d.read("b").unwrap().unwrap(), b"fresh");
        assert_eq!(d.read("missing").unwrap(), None);
        assert_eq!(d.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        d.remove("a").unwrap();
        d.remove("a").unwrap(); // idempotent
        assert_eq!(d.read("a").unwrap(), None);
    }

    #[test]
    fn fsdir_roundtrip() {
        let root = std::env::temp_dir().join(format!("slicer-fsdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let d = FsDir::open(&root).unwrap();
        d.write_atomic("wal", b"abc").unwrap();
        d.append("wal", b"def").unwrap();
        assert_eq!(d.read("wal").unwrap().unwrap(), b"abcdef");
        d.write_atomic("wal", b"replaced").unwrap();
        assert_eq!(d.read("wal").unwrap().unwrap(), b"replaced");
        assert_eq!(d.list().unwrap(), vec!["wal".to_string()]);
        assert!(d.read("../escape").is_err());
        d.remove("wal").unwrap();
        assert_eq!(d.read("wal").unwrap(), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crashdir_black_holes_writes_after_the_armed_point() {
        let d = CrashDir::new();
        d.write_atomic("kept", b"durable").unwrap();
        d.arm(CrashPoint::MidFold);
        d.crash_point(CrashPoint::AfterWalAppend); // not armed: no effect
        assert!(!d.crashed());
        d.crash_point(CrashPoint::MidFold);
        assert!(d.crashed());
        d.write_atomic("lost", b"never lands").unwrap();
        d.append("kept", b" more").unwrap();
        d.remove("kept").unwrap();
        let image = d.image_dir();
        assert_eq!(image.read("kept").unwrap().unwrap(), b"durable");
        assert_eq!(image.read("lost").unwrap(), None);
    }

    #[test]
    fn unarmed_crashdir_behaves_like_memdir() {
        let d = CrashDir::new();
        d.append("wal", b"rec").unwrap();
        for p in CrashPoint::ALL {
            d.crash_point(p);
        }
        assert!(!d.crashed());
        assert_eq!(d.image_dir().read("wal").unwrap().unwrap(), b"rec");
    }
}
