//! Spill-to-disk plumbing shared by the grace hash join, the
//! partitioned aggregate, and the external-merge sort.
//!
//! # Spill record format
//!
//! Blocking operators spill *keys and row ids*, never payload columns
//! (payloads stay in the materialized input batch and are gathered once
//! at assembly, and dictionary-encoded columns never decode — sort
//! spills only position runs, joins/aggregates spill canonical key
//! encodings which for dict×dict keys are u32 codes). One record is
//!
//! ```text
//! u64 hash (LE) | u32 row (LE) | u32 key_len (LE) | key_len key bytes
//! ```
//!
//! where `hash` is the FNV-1a hash of `key`, the canonical key encoding
//! ([`hive_common::hash`]) — the key layer's *bytes* shape
//! ([`crate::keys`]), which spilling operators force whatever their key
//! columns are, i.e. exactly the [`crate::rawtable::RawTable`] arena
//! bytes plus its stored 64-bit hash. A partition read back from disk
//! rebuilds its table from the records and never re-hashes or
//! re-encodes. That keeps
//! the spilled build byte-compatible with the in-memory build (same
//! probe hash, same arena contents) and keeps seeded fault replay
//! deterministic: the spilled byte stream is a pure function of the
//! input rows.
//!
//! # I/O, faults, recovery
//!
//! Spill files are written through [`hive_dfs::DistFs`], so their I/O
//! is metered into the sim-time model and both reads and writes pass
//! the seeded [`hive_common::fault::FaultInjector`] (sites `DfsRead` /
//! `DfsWrite`). [`SpillCtx::write`] and [`SpillCtx::read`] retry
//! transient faults with the same capped-exponential ladder as
//! fragment recovery, charging backoff to the operator's spill stats;
//! with recovery disabled the first fault surfaces, which is what the
//! orphan-cleanup test aborts a query with. [`SpillFile`] deletes its
//! file on drop — normal completion, `?` propagation, and panic unwind
//! all leave the spill directory empty.

use crate::membroker::MemoryBroker;
use hive_common::{HiveError, Result};
use hive_dfs::{Bytes, DfsPath, DistFs};
use std::sync::atomic::{AtomicU64, Ordering};

/// Recursion guardrails for partitioned spilling. Depth is capped so a
/// degenerate hash distribution cannot recurse forever; fanout is
/// capped so one level never creates an unbounded file set.
pub const MAX_DEPTH: u32 = 6;
pub const MAX_FANOUT: usize = 16;

/// Modeled bytes of hash-table working state for `rows` keys of
/// `key_cols` columns: canonical key encodings (~9 bytes per fixed
/// part) riding in the arena, plus per-row hash/tag/chain overhead.
/// A deliberate width model, not a measurement — it only has to be
/// deterministic and monotone in the input size for the spill decision
/// to replay identically at any worker count.
pub fn estimate_table_bytes(rows: usize, key_cols: usize) -> u64 {
    rows as u64 * (9 * key_cols.max(1) as u64 + 28)
}

/// Modeled bytes of aggregation state: the key table plus accumulator
/// slots (a [`crate::aggregate`] `Acc` is value-sized; DISTINCT sets
/// are charged per contributing row since groups are bounded by rows).
pub fn estimate_agg_bytes(rows: usize, key_cols: usize, naggs: usize) -> u64 {
    estimate_table_bytes(rows, key_cols) + rows as u64 * 48 * naggs.max(1) as u64
}

/// Modeled bytes of sort working state: the position permutation plus
/// per-key comparator state (rank lookups are O(1) and shared).
pub fn estimate_sort_bytes(rows: usize, key_cols: usize) -> u64 {
    rows as u64 * (4 + 16 * key_cols.max(1) as u64)
}

/// Decision for one spill partition (or the operator's whole input at
/// depth 0): process in memory, or partition `fanout` ways and recurse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionPlan {
    pub fanout: usize,
    pub process_in_memory: bool,
}

/// The pure partition planner. In-memory when the estimate fits the
/// working budget — and, so recursion provably terminates, when the
/// depth cap is reached or when partitioning made no progress
/// (`rows == parent_rows`: every key hashed identically, e.g. a
/// single-key skewed build side, which no amount of re-partitioning
/// separates). Otherwise partition with fanout `est/budget`, clamped
/// to [2, [`MAX_FANOUT`]].
pub fn plan_partition(
    est_bytes: u64,
    budget_bytes: u64,
    depth: u32,
    rows: usize,
    parent_rows: Option<usize>,
) -> PartitionPlan {
    let budget = budget_bytes.max(1);
    let no_progress = parent_rows == Some(rows);
    if est_bytes <= budget || depth >= MAX_DEPTH || no_progress || rows <= 1 {
        return PartitionPlan {
            fanout: 1,
            process_in_memory: true,
        };
    }
    let fanout = est_bytes.div_ceil(budget).clamp(2, MAX_FANOUT as u64) as usize;
    PartitionPlan {
        fanout,
        process_in_memory: false,
    }
}

/// Route a stored key hash to a partition at recursion `depth`. Each
/// level remixes with a depth salt (splitmix64 finalizer) so child
/// partitions re-split on fresh bits instead of re-deriving the parent
/// split — without touching the stored hash itself.
pub fn partition_of(hash: u64, depth: u32, fanout: usize) -> usize {
    let mut z = hash ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(depth as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % fanout.max(1) as u64) as usize
}

/// Append one spill record to `out`.
pub fn push_rec(out: &mut Vec<u8>, hash: u64, row: u32, key: &[u8]) {
    out.extend_from_slice(&hash.to_le_bytes());
    out.extend_from_slice(&row.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
}

/// Iterate spill records out of a buffer read back from a spill file.
pub struct RecIter<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> RecIter<'a> {
    pub fn new(buf: &'a [u8]) -> RecIter<'a> {
        RecIter { buf, off: 0 }
    }
}

impl<'a> Iterator for RecIter<'a> {
    type Item = Result<(u64, u32, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.off == self.buf.len() {
            return None;
        }
        if self.buf.len() - self.off < 16 {
            self.off = self.buf.len();
            return Some(Err(HiveError::Format(
                "truncated spill record header".into(),
            )));
        }
        let b = &self.buf[self.off..];
        let hash = u64::from_le_bytes(b[0..8].try_into().expect("8-byte slice"));
        let row = u32::from_le_bytes(b[8..12].try_into().expect("4-byte slice"));
        let len = u32::from_le_bytes(b[12..16].try_into().expect("4-byte slice")) as usize;
        if b.len() - 16 < len {
            self.off = self.buf.len();
            return Some(Err(HiveError::Format("truncated spill record key".into())));
        }
        self.off += 16 + len;
        Some(Ok((hash, row, &b[16..16 + len])))
    }
}

/// Per-operator spill I/O accounting, folded into the operator's
/// [`crate::engine::NodeTrace`] (bytes into `bytes_disk` — spill I/O is
/// disk I/O to the sim-time model — plus the dedicated `bytes_spilled`
/// counter and retry backoff into `backoff_wait_ms`).
#[derive(Debug, Default)]
pub struct SpillStats {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    files: AtomicU64,
    reads: AtomicU64,
    retries: AtomicU64,
    backoff_micros: AtomicU64,
}

impl SpillStats {
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
    pub fn files(&self) -> u64 {
        self.files.load(Ordering::Relaxed)
    }
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
    pub fn backoff_ms(&self) -> f64 {
        self.backoff_micros.load(Ordering::Relaxed) as f64 / 1000.0
    }
    fn charge_retry(&self, backoff_ms: f64) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.backoff_micros
            .fetch_add((backoff_ms * 1000.0) as u64, Ordering::Relaxed);
    }
}

/// RAII guard over one spill file: deletes it through dfs on drop, so
/// every exit path — normal completion, error propagation, panic
/// unwind — leaves no orphans in the spill directory.
#[derive(Debug)]
pub struct SpillFile<'a> {
    fs: &'a DistFs,
    path: DfsPath,
    pub bytes: u64,
}

impl SpillFile<'_> {
    pub fn path(&self) -> &DfsPath {
        &self.path
    }
}

impl Drop for SpillFile<'_> {
    fn drop(&mut self) {
        // Best effort: a file that failed creation mid-retry may not
        // exist, and cleanup must never panic on an unwind path.
        let _ = self.fs.delete_file(&self.path);
    }
}

/// One operator's handle to the query's spill environment: where to
/// write, which broker arbitrates memory, and whether degrading to
/// disk is allowed at all (`hive.exec.spill.enabled`). The engine
/// creates one per blocking operator; `op_seq` is shared across the
/// query so file names stay unique (operators run sequentially, so the
/// sequence — and with it every spill path — is deterministic).
pub struct SpillCtx<'a> {
    fs: &'a DistFs,
    dir: DfsPath,
    pub broker: &'a MemoryBroker,
    pub enabled: bool,
    op_seq: &'a AtomicU64,
    pub stats: SpillStats,
}

impl<'a> SpillCtx<'a> {
    pub fn new(
        fs: &'a DistFs,
        dir: DfsPath,
        broker: &'a MemoryBroker,
        enabled: bool,
        op_seq: &'a AtomicU64,
    ) -> SpillCtx<'a> {
        SpillCtx {
            fs,
            dir,
            broker,
            enabled,
            op_seq,
            stats: SpillStats::default(),
        }
    }

    pub fn fs(&self) -> &'a DistFs {
        self.fs
    }

    /// Claim this operator's spill id (file-name prefix).
    pub fn next_op(&self) -> u64 {
        self.op_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Retry `op` on transient faults with the fragment-recovery
    /// ladder's capped exponential backoff, charged to spill stats.
    fn with_retry<T>(&self, what: &str, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let fault = self.fs.fault();
        let mut attempt: u32 = 0;
        loop {
            match op() {
                Err(e) if e.is_transient() => {
                    if !fault.recovery_enabled() {
                        return Err(e);
                    }
                    if attempt >= fault.max_fragment_retries() {
                        return Err(HiveError::FragmentLost(format!(
                            "{what}: transient error persisted through {attempt} retries: {e}"
                        )));
                    }
                    self.stats.charge_retry(fault.backoff_ms(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Write one spill file (fault-injected, retried) and return its
    /// RAII guard. `name` must be unique within the query — prefix it
    /// with the operator's `next_op` id.
    pub fn write(&self, name: &str, data: Vec<u8>) -> Result<SpillFile<'a>> {
        let path = self.dir.child(name);
        let bytes = data.len() as u64;
        let data = Bytes::from(data);
        self.with_retry("spill write", || self.fs.create(&path, data.clone()))?;
        self.stats.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.stats.files.fetch_add(1, Ordering::Relaxed);
        Ok(SpillFile {
            fs: self.fs,
            path,
            bytes,
        })
    }

    /// Read a spill file back (fault-injected, retried).
    pub fn read(&self, file: &SpillFile<'_>) -> Result<Vec<u8>> {
        let (_, data) = self.with_retry("spill read", || self.fs.read(&file.path))?;
        self.stats
            .bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(data.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::fault::FaultPlan;

    fn ctx_parts() -> (DistFs, MemoryBroker, AtomicU64) {
        (DistFs::new(), MemoryBroker::unlimited(), AtomicU64::new(0))
    }

    #[test]
    fn records_roundtrip() {
        let mut buf = Vec::new();
        push_rec(&mut buf, 0xDEAD_BEEF, 7, b"key-a");
        push_rec(&mut buf, 42, 0, b"");
        push_rec(&mut buf, u64::MAX, u32::MAX, &[0u8; 300]);
        let recs: Vec<_> = RecIter::new(&buf).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0], (0xDEAD_BEEF, 7, &b"key-a"[..]));
        assert_eq!(recs[1], (42, 0, &b""[..]));
        assert_eq!(recs[2].2.len(), 300);
        // Truncation is a Format error, not a panic.
        let bad: Vec<_> = RecIter::new(&buf[..buf.len() - 1]).collect();
        assert!(matches!(
            bad.last().unwrap(),
            Err(HiveError::Format(_)) | Ok(_)
        ));
        assert!(bad.iter().any(|r| r.is_err()));
    }

    #[test]
    fn spill_file_deletes_on_drop_and_unwind() {
        let (fs, broker, ops) = ctx_parts();
        let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q0"), &broker, true, &ops);
        {
            let f = sp.write("op0-p0.spill", vec![1, 2, 3]).unwrap();
            assert_eq!(
                fs.list_files_recursive(&DfsPath::new("/tmp/spill")).len(),
                1
            );
            assert_eq!(sp.read(&f).unwrap(), vec![1, 2, 3]);
        }
        assert!(
            fs.list_files_recursive(&DfsPath::new("/tmp/spill"))
                .is_empty(),
            "guard dropped: file gone"
        );
        // Panic unwind path.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _f = sp.write("op0-p1.spill", vec![9; 64]).unwrap();
            panic!("operator died mid-spill");
        }));
        assert!(r.is_err());
        assert!(
            fs.list_files_recursive(&DfsPath::new("/tmp/spill"))
                .is_empty(),
            "no orphans after panic unwind"
        );
        assert_eq!(sp.stats.files(), 2);
        assert_eq!(sp.stats.bytes_written(), 3 + 64);
    }

    #[test]
    fn writes_and_reads_retry_through_targeted_faults() {
        let (fs, broker, ops) = ctx_parts();
        let mut plan = FaultPlan::none();
        plan.fail_path_substrings = vec!["spill".into()];
        plan.path_fail_count = 2;
        fs.fault().set_plan(plan);
        let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q1"), &broker, true, &ops);
        let f = sp.write("op0-p0.spill", vec![5; 10]).unwrap();
        assert_eq!(sp.read(&f).unwrap(), vec![5; 10]);
        assert!(
            sp.stats.retries() >= 4,
            "2 write + 2 read faults retried, got {}",
            sp.stats.retries()
        );
        assert!(sp.stats.backoff_ms() > 0.0);
    }

    #[test]
    fn recovery_disabled_surfaces_spill_fault() {
        let (fs, broker, ops) = ctx_parts();
        let mut plan = FaultPlan::none();
        plan.fail_path_substrings = vec!["spill".into()];
        plan.path_fail_count = 1;
        plan.recovery_enabled = false;
        fs.fault().set_plan(plan);
        let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q2"), &broker, true, &ops);
        let err = sp.write("op0-p0.spill", vec![1]).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(
            fs.list_files_recursive(&DfsPath::new("/tmp/spill"))
                .is_empty(),
            "failed create leaves nothing behind"
        );
    }

    #[test]
    fn planner_fits_in_memory_under_budget() {
        let p = plan_partition(1000, 4096, 0, 100, None);
        assert!(p.process_in_memory);
    }

    #[test]
    fn planner_fanout_scales_with_pressure_and_clamps() {
        let p = plan_partition(10_000, 4096, 0, 1000, None);
        assert_eq!((p.process_in_memory, p.fanout), (false, 3));
        let p = plan_partition(u64::MAX / 2, 4096, 0, 1_000_000, None);
        assert_eq!(p.fanout, MAX_FANOUT);
    }

    #[test]
    fn planner_terminates_on_no_progress_and_depth() {
        // Skewed single-key build: child partition the same size as its
        // parent means hashing cannot separate rows — process in memory.
        let p = plan_partition(1 << 40, 4096, 1, 5000, Some(5000));
        assert!(p.process_in_memory, "no-progress guard");
        let p = plan_partition(1 << 40, 4096, MAX_DEPTH, 5000, Some(9000));
        assert!(p.process_in_memory, "depth cap");
        // Progress + shallow depth keeps partitioning.
        let p = plan_partition(1 << 40, 4096, 1, 5000, Some(9000));
        assert!(!p.process_in_memory);
    }

    #[test]
    fn partition_routing_is_stable_and_depth_salted() {
        let h = 0x0123_4567_89ab_cdefu64;
        let p0 = partition_of(h, 0, 16);
        assert_eq!(partition_of(h, 0, 16), p0, "deterministic");
        // Different depths re-split on fresh bits (not a proof, but a
        // canary: all depths agreeing would mean the salt is dead).
        let all_same = (1..8).all(|d| partition_of(h, d, 16) == p0);
        assert!(!all_same);
    }
}
