//! The in-memory distributed file system.

use crate::path::DfsPath;
use crate::stats::IoStats;
use bytes::Bytes;
use hive_common::{FaultInjector, FileId, HiveError, Result};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Metadata for a stored file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Stable unique identity (the HDFS-file-id / ETag analogue).
    pub file_id: FileId,
    /// Length in bytes.
    pub len: u64,
}

/// A directory-listing entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    /// Full path of the entry.
    pub path: DfsPath,
    /// `Some` for files, `None` for directories.
    pub meta: Option<FileMeta>,
}

impl FileStatus {
    /// True for directory entries.
    pub fn is_dir(&self) -> bool {
        self.meta.is_none()
    }
}

#[derive(Debug)]
struct Inner {
    /// Files keyed by path. BTreeMap gives ordered, prefix-scannable
    /// listings — the moral equivalent of the NameNode namespace.
    files: BTreeMap<DfsPath, (FileMeta, Bytes)>,
    /// Explicitly-created directories (may be empty). Files implicitly
    /// create their ancestors.
    dirs: std::collections::BTreeSet<DfsPath>,
}

/// The simulated distributed file system. Cheap to clone (shared state).
#[derive(Debug, Clone)]
pub struct DistFs {
    inner: Arc<RwLock<Inner>>,
    next_file_id: Arc<AtomicU64>,
    stats: Arc<IoStats>,
    /// Deterministic fault injection (shared with LLAP and the
    /// executor so one seed drives the whole stack).
    fault: Arc<FaultInjector>,
}

impl Default for DistFs {
    fn default() -> Self {
        Self::new()
    }
}

impl DistFs {
    /// An empty file system.
    pub fn new() -> Self {
        DistFs {
            inner: Arc::new(RwLock::new(Inner {
                files: BTreeMap::new(),
                dirs: std::collections::BTreeSet::new(),
            })),
            next_file_id: Arc::new(AtomicU64::new(1)),
            stats: Arc::new(IoStats::default()),
            fault: Arc::new(FaultInjector::new()),
        }
    }

    /// The I/O meter for this file system.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The shared fault injector. The server pushes `HiveConf::fault`
    /// into it; LLAP and the executor roll against the same instance.
    pub fn fault(&self) -> &Arc<FaultInjector> {
        &self.fault
    }

    /// Roll the injected-fault dice for a read of `path` at `offset`:
    /// a transient error (surfaced as [`HiveError::Transient`]) or a
    /// slow-I/O penalty charged to the injector's simtime accumulator.
    /// Keying rolls by byte offset (not just path) keeps fault replay
    /// deterministic when the scanner reads a file's ranges from
    /// parallel worker threads.
    fn inject_read_faults(&self, path: &DfsPath, offset: u64) -> Result<()> {
        if !self.fault.is_active() {
            return Ok(());
        }
        if self.fault.dfs_read_fails(path.as_str(), offset) {
            return Err(HiveError::Transient(format!(
                "injected transient read error: {path}@{offset}"
            )));
        }
        // Slow reads still succeed; the latency lands in simtime.
        self.fault.dfs_read_slow_ms(path.as_str(), offset);
        Ok(())
    }

    /// Create an (empty) directory, including ancestors.
    pub fn mkdirs(&self, path: &DfsPath) {
        let mut g = self.inner.write();
        let mut p = path.clone();
        loop {
            g.dirs.insert(p.clone());
            match p.parent() {
                Some(parent) if parent != DfsPath::root() => p = parent,
                _ => break,
            }
        }
    }

    /// Write a new immutable file. Fails if the path already exists
    /// (files are never overwritten in place — new data goes to new
    /// deltas/bases, per the ACID design).
    pub fn create(&self, path: &DfsPath, data: Bytes) -> Result<FileMeta> {
        // Write faults fire *before* any state changes, so a retried
        // create starts from a clean slate (no half-written file and no
        // spurious already-exists error on the retry).
        if self.fault.is_active() && self.fault.dfs_write_fails(path.as_str()) {
            return Err(HiveError::Transient(format!(
                "injected transient write error: {path}"
            )));
        }
        let mut g = self.inner.write();
        if g.files.contains_key(path) {
            return Err(HiveError::Io(format!("file already exists: {path}")));
        }
        if g.dirs.contains(path) {
            return Err(HiveError::Io(format!("path is a directory: {path}")));
        }
        let meta = FileMeta {
            file_id: FileId(self.next_file_id.fetch_add(1, Ordering::Relaxed)),
            len: data.len() as u64,
        };
        self.stats.record_write(meta.len);
        // Implicitly create ancestor directories.
        let mut p = path.parent();
        while let Some(dir) = p {
            if dir == DfsPath::root() {
                break;
            }
            g.dirs.insert(dir.clone());
            p = dir.parent();
        }
        g.files.insert(path.clone(), (meta.clone(), data));
        Ok(meta)
    }

    /// Read a whole file.
    pub fn read(&self, path: &DfsPath) -> Result<(FileMeta, Bytes)> {
        self.inject_read_faults(path, 0)?;
        let g = self.inner.read();
        let (meta, data) = g
            .files
            .get(path)
            .ok_or_else(|| HiveError::Io(format!("file not found: {path}")))?;
        self.stats.record_read(meta.len);
        Ok((meta.clone(), data.clone()))
    }

    /// Read a byte range of a file (records only the range against the
    /// I/O meter — the basis of column/row-group-selective read costs).
    pub fn read_range(&self, path: &DfsPath, offset: u64, len: u64) -> Result<Bytes> {
        self.inject_read_faults(path, offset)?;
        let g = self.inner.read();
        let (meta, data) = g
            .files
            .get(path)
            .ok_or_else(|| HiveError::Io(format!("file not found: {path}")))?;
        let end = offset
            .checked_add(len)
            .filter(|e| *e <= meta.len)
            .ok_or_else(|| {
                HiveError::Io(format!(
                    "range [{offset}, {offset}+{len}) out of bounds for {path} (len {})",
                    meta.len
                ))
            })?;
        self.stats.record_read(len);
        Ok(data.slice(offset as usize..end as usize))
    }

    /// File metadata without reading data (a NameNode metadata op; does
    /// not count as data I/O).
    pub fn stat(&self, path: &DfsPath) -> Result<FileMeta> {
        let g = self.inner.read();
        g.files
            .get(path)
            .map(|(m, _)| m.clone())
            .ok_or_else(|| HiveError::Io(format!("file not found: {path}")))
    }

    /// Whether a file or directory exists at `path`.
    pub fn exists(&self, path: &DfsPath) -> bool {
        let g = self.inner.read();
        g.files.contains_key(path) || g.dirs.contains(path)
    }

    /// List the direct children of a directory (files and directories),
    /// ordered by name.
    pub fn list(&self, dir: &DfsPath) -> Vec<FileStatus> {
        self.stats.record_list();
        let g = self.inner.read();
        let mut out: Vec<FileStatus> = Vec::new();
        let mut seen_dirs = std::collections::BTreeSet::new();
        for (p, (meta, _)) in g.files.range(dir.clone()..) {
            if !p.starts_with(dir) {
                break;
            }
            if p.is_direct_child_of(dir) {
                out.push(FileStatus {
                    path: p.clone(),
                    meta: Some(meta.clone()),
                });
            } else if let Some(child) = first_child_under(dir, p) {
                seen_dirs.insert(child);
            }
        }
        for d in g.dirs.range(dir.clone()..) {
            if !d.starts_with(dir) {
                break;
            }
            if d.is_direct_child_of(dir) {
                seen_dirs.insert(d.clone());
            }
        }
        for d in seen_dirs {
            out.push(FileStatus {
                path: d,
                meta: None,
            });
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// List all files (recursively) under a directory.
    pub fn list_files_recursive(&self, dir: &DfsPath) -> Vec<(DfsPath, FileMeta)> {
        self.stats.record_list();
        let g = self.inner.read();
        g.files
            .range(dir.clone()..)
            .take_while(|(p, _)| p.starts_with(dir))
            .map(|(p, (m, _))| (p.clone(), m.clone()))
            .collect()
    }

    /// Delete a single file.
    pub fn delete_file(&self, path: &DfsPath) -> Result<()> {
        let mut g = self.inner.write();
        g.files
            .remove(path)
            .ok_or_else(|| HiveError::Io(format!("file not found: {path}")))?;
        self.stats.record_delete();
        Ok(())
    }

    /// Recursively delete a directory and everything under it.
    pub fn delete_dir(&self, dir: &DfsPath) -> Result<()> {
        let mut g = self.inner.write();
        let files: Vec<DfsPath> = g
            .files
            .range(dir.clone()..)
            .take_while(|(p, _)| p.starts_with(dir))
            .map(|(p, _)| p.clone())
            .collect();
        for p in files {
            g.files.remove(&p);
        }
        let dirs: Vec<DfsPath> = g
            .dirs
            .range(dir.clone()..)
            .take_while(|p| p.starts_with(dir))
            .cloned()
            .collect();
        for d in dirs {
            g.dirs.remove(&d);
        }
        self.stats.record_delete();
        Ok(())
    }

    /// Atomically rename a directory subtree. Fails if the destination
    /// already exists — rename is the commit primitive for compaction.
    pub fn rename_dir(&self, from: &DfsPath, to: &DfsPath) -> Result<()> {
        let mut g = self.inner.write();
        if g.dirs.contains(to) || g.files.contains_key(to) {
            return Err(HiveError::Io(format!("rename target exists: {to}")));
        }
        if !g.dirs.contains(from) {
            return Err(HiveError::Io(format!("rename source not found: {from}")));
        }
        let files: Vec<DfsPath> = g
            .files
            .range(from.clone()..)
            .take_while(|(p, _)| p.starts_with(from))
            .map(|(p, _)| p.clone())
            .collect();
        for p in files {
            let entry = g
                .files
                .remove(&p)
                .ok_or_else(|| HiveError::Io(format!("file vanished during rename: {p}")))?;
            g.files.insert(p.rebase(from, to), entry);
        }
        let dirs: Vec<DfsPath> = g
            .dirs
            .range(from.clone()..)
            .take_while(|p| p.starts_with(from))
            .cloned()
            .collect();
        for d in dirs {
            g.dirs.remove(&d);
            g.dirs.insert(d.rebase(from, to));
        }
        // Ensure destination ancestors exist.
        let mut p = to.parent();
        while let Some(dir) = p {
            if dir == DfsPath::root() {
                break;
            }
            g.dirs.insert(dir.clone());
            p = dir.parent();
        }
        self.stats.record_rename();
        Ok(())
    }
}

/// For `descendant` strictly under `dir`, the direct child of `dir` on the
/// path to `descendant`.
fn first_child_under(dir: &DfsPath, descendant: &DfsPath) -> Option<DfsPath> {
    let rest = descendant.as_str().strip_prefix(dir.as_str())?;
    let rest = rest.strip_prefix('/').unwrap_or(rest);
    let seg = rest.split('/').next()?;
    if seg.is_empty() {
        None
    } else {
        Some(dir.child(seg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with_files(paths: &[&str]) -> DistFs {
        let fs = DistFs::new();
        for p in paths {
            fs.create(&DfsPath::new(p), Bytes::from_static(b"data"))
                .unwrap();
        }
        fs
    }

    #[test]
    fn create_read_round_trip() {
        let fs = DistFs::new();
        let p = DfsPath::new("/wh/t/base_1/f0");
        let meta = fs.create(&p, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(meta.len, 5);
        let (m2, data) = fs.read(&p).unwrap();
        assert_eq!(m2, meta);
        assert_eq!(&data[..], b"hello");
    }

    #[test]
    fn files_are_immutable() {
        let fs = fs_with_files(&["/a/f"]);
        assert!(fs
            .create(&DfsPath::new("/a/f"), Bytes::from_static(b"x"))
            .is_err());
    }

    #[test]
    fn file_ids_unique_and_stable() {
        let fs = fs_with_files(&["/a/f1", "/a/f2"]);
        let m1 = fs.stat(&DfsPath::new("/a/f1")).unwrap();
        let m2 = fs.stat(&DfsPath::new("/a/f2")).unwrap();
        assert_ne!(m1.file_id, m2.file_id);
        assert_eq!(fs.stat(&DfsPath::new("/a/f1")).unwrap().file_id, m1.file_id);
    }

    #[test]
    fn range_reads_meter_only_the_range() {
        let fs = DistFs::new();
        let p = DfsPath::new("/f");
        fs.create(&p, Bytes::from(vec![0u8; 1000])).unwrap();
        let before = fs.stats().snapshot();
        let b = fs.read_range(&p, 100, 50).unwrap();
        assert_eq!(b.len(), 50);
        let d = fs.stats().snapshot().since(&before);
        assert_eq!(d.bytes_read, 50);
        assert!(fs.read_range(&p, 990, 20).is_err());
    }

    #[test]
    fn listing_direct_children() {
        let fs = fs_with_files(&[
            "/wh/t/part=1/base_1/f0",
            "/wh/t/part=1/delta_2_2/f0",
            "/wh/t/part=2/base_1/f0",
        ]);
        let parts = fs.list(&DfsPath::new("/wh/t"));
        let names: Vec<&str> = parts.iter().map(|s| s.path.name()).collect();
        assert_eq!(names, vec!["part=1", "part=2"]);
        assert!(parts.iter().all(|s| s.is_dir()));
        let stores = fs.list(&DfsPath::new("/wh/t/part=1"));
        let names: Vec<&str> = stores.iter().map(|s| s.path.name()).collect();
        assert_eq!(names, vec!["base_1", "delta_2_2"]);
    }

    #[test]
    fn recursive_listing_and_delete() {
        let fs = fs_with_files(&["/a/b/f1", "/a/b/c/f2", "/a/d/f3"]);
        assert_eq!(fs.list_files_recursive(&DfsPath::new("/a/b")).len(), 2);
        fs.delete_dir(&DfsPath::new("/a/b")).unwrap();
        assert_eq!(fs.list_files_recursive(&DfsPath::new("/a")).len(), 1);
        assert!(!fs.exists(&DfsPath::new("/a/b")));
        assert!(fs.exists(&DfsPath::new("/a/d/f3")));
    }

    #[test]
    fn atomic_rename() {
        let fs = fs_with_files(&["/t/.tmp_compact/base_5/f0", "/t/.tmp_compact/base_5/f1"]);
        fs.rename_dir(
            &DfsPath::new("/t/.tmp_compact/base_5"),
            &DfsPath::new("/t/base_5"),
        )
        .unwrap();
        assert_eq!(fs.list_files_recursive(&DfsPath::new("/t/base_5")).len(), 2);
        assert!(!fs.exists(&DfsPath::new("/t/.tmp_compact/base_5/f0")));
        // Renaming over an existing target fails.
        fs.mkdirs(&DfsPath::new("/t/other"));
        assert!(fs
            .rename_dir(&DfsPath::new("/t/base_5"), &DfsPath::new("/t/other"))
            .is_err());
    }

    #[test]
    fn injected_read_error_is_transient_and_deterministic() {
        use hive_common::FaultPlan;
        let fs = fs_with_files(&["/t/part-0.orc", "/t/part-1.orc"]);
        fs.fault().set_plan(FaultPlan::none().with(|p| {
            p.fail_path_substrings = vec!["part-0".into()];
            p.path_fail_count = 1;
        }));
        let err = fs.read(&DfsPath::new("/t/part-0.orc")).unwrap_err();
        assert_eq!(err.kind(), "TRANSIENT");
        assert!(err.is_transient());
        // Retry heals; the untargeted file never failed.
        assert!(fs.read(&DfsPath::new("/t/part-0.orc")).is_ok());
        assert!(fs.read(&DfsPath::new("/t/part-1.orc")).is_ok());
        assert_eq!(fs.fault().stats().dfs_read_errors, 1);
    }

    #[test]
    fn injected_write_error_leaves_no_partial_file() {
        use hive_common::FaultPlan;
        let fs = DistFs::new();
        fs.fault().set_plan(FaultPlan::none().with(|p| {
            p.fail_path_substrings = vec!["spill".into()];
            p.path_fail_count = 1;
        }));
        let p = DfsPath::new("/tmp/spill/q0/p0.bin");
        let err = fs.create(&p, Bytes::from_static(b"run")).unwrap_err();
        assert_eq!(err.kind(), "TRANSIENT");
        assert!(!fs.exists(&p), "failed create must not leave state behind");
        // The retry succeeds against the healed path.
        assert!(fs.create(&p, Bytes::from_static(b"run")).is_ok());
        // The path's *read* counter is independent of the write counter:
        // the first read of the targeted path still fails once.
        assert!(fs.read(&p).unwrap_err().is_transient());
        assert_eq!(fs.read(&p).unwrap().1.as_ref(), b"run");
        assert_eq!(fs.fault().stats().dfs_write_errors, 1);
    }

    #[test]
    fn injected_slow_read_accumulates_latency_not_errors() {
        use hive_common::FaultPlan;
        let fs = fs_with_files(&["/t/f"]);
        fs.fault().set_plan(FaultPlan::none().with(|p| {
            p.seed = 11;
            p.dfs_slow_prob = 1.0;
            p.dfs_slow_ms = 30.0;
        }));
        assert!(fs.read(&DfsPath::new("/t/f")).is_ok());
        assert!(fs.read_range(&DfsPath::new("/t/f"), 0, 2).is_ok());
        assert_eq!(fs.fault().slow_penalty_ms(), 60.0);
        assert_eq!(fs.fault().stats().dfs_slow_reads, 2);
    }

    #[test]
    fn mkdirs_creates_ancestors() {
        let fs = DistFs::new();
        fs.mkdirs(&DfsPath::new("/a/b/c"));
        assert!(fs.exists(&DfsPath::new("/a")));
        assert!(fs.exists(&DfsPath::new("/a/b")));
        assert!(fs.exists(&DfsPath::new("/a/b/c")));
        let l = fs.list(&DfsPath::new("/a"));
        assert_eq!(l.len(), 1);
        assert!(l[0].is_dir());
    }
}
