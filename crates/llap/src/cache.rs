//! The LLAP data cache and metadata cache.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hive_common::{ColumnVector, FaultInjector, FileId, Result};
use hive_corc::{CorcFile, Spares};
use hive_dfs::{DfsPath, DistFs};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cache key: one column chunk of one row group of one file. FileId is
/// the stable identity (ETag analogue) that keeps entries valid across
/// the ACID table's evolving directory layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkKey {
    pub file: FileId,
    pub column: usize,
    pub row_group: usize,
}

impl ChunkKey {
    /// Stable 64-bit identity, used for fault-injection rolls and for
    /// partitioning the cache across daemon nodes. Explicit FNV-1a
    /// rather than `DefaultHasher`: the standard hasher's output is not
    /// guaranteed stable across Rust releases, and `HIVE_FAULT_SEED`
    /// replays must not change under a toolchain bump. Pinned by a
    /// regression test below.
    pub fn hash64(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for v in [self.file.0, self.column as u64, self.row_group as u64] {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }
}

/// Identity of a shared dictionary allocation referenced by cache
/// entries of one (file, column). The `Arc` address is a valid identity
/// because every referencing `Entry` keeps the allocation alive, so the
/// address cannot be reused while a charge is outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DictKey {
    file: FileId,
    column: usize,
    addr: usize,
}

#[derive(Debug)]
struct Entry {
    data: Arc<ColumnVector>,
    /// Bytes charged to this entry alone: for dictionary-encoded chunks
    /// the codes (4 bytes/row) + null-bitmap overhead; the shared
    /// dictionary is charged once per [`DictKey`] in `dict_charges`.
    bytes: usize,
    /// Shared dictionary this entry holds a reference on, if any.
    dict_key: Option<DictKey>,
    /// Time-invariant LRFU key `log2(CRF) + λ·last_ref` (see
    /// [`LlapCache`]); raised on every hit.
    key: f64,
    last_ref: u64,
    /// The `(key, last_ref)` this entry is filed under in
    /// `CacheInner::order`. A hit moves `key`/`last_ref` but not the
    /// filing, so the entry is stale in the order exactly when
    /// `filed.1 != last_ref`.
    filed: (u64, u64),
}

/// Per-entry cost split: own bytes plus (for encoded chunks) the shared
/// dictionary's identity and size.
fn chunk_cost(key: &ChunkKey, col: &ColumnVector) -> (usize, Option<(DictKey, usize)>) {
    match col.dict_parts() {
        Some((codes, dict, _)) => {
            let own = codes.len() * 4 + codes.len() / 8;
            let dict_bytes: usize = dict.iter().map(|s| s.len() + 24).sum();
            let dk = DictKey {
                file: key.file,
                column: key.column,
                addr: Arc::as_ptr(dict) as *const u8 as usize,
            };
            (own, Some((dk, dict_bytes)))
        }
        None => (col.approx_bytes(), None),
    }
}

/// Cache hit/miss counters.
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub bytes_served_from_cache: AtomicU64,
    pub bytes_loaded: AtomicU64,
    /// Hits discarded because the chunk was detected as corrupt
    /// (checksum-mismatch model); each degrades to a DFS load.
    pub corrupt_misses: AtomicU64,
}

impl CacheStats {
    /// (hits, misses) snapshot.
    pub fn hit_miss(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Hit rate in [0,1]; 0 when empty.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = self.hit_miss();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// The off-heap-style chunk cache with **LRFU** eviction (§5.1: "a
/// simple LRFU replacement policy that is tuned for analytic workloads
/// with frequent full and partial scan operations"; "the unit of data
/// for eviction is the chunk").
///
/// LRFU computes a combined recency/frequency value per entry:
/// `CRF = 1 + CRF_old · 2^(−λ·Δt)` on each reference, and evicts the
/// entry whose CRF decayed to *now* is lowest. λ→0 degenerates to LFU,
/// λ→1 to LRU.
///
/// Two entries that are not re-referenced never change order: decayed
/// to any common `now`, `CRF · 2^(−λ(now − last))` compares as
/// `log2(CRF) + λ·last` does. That **time-invariant key** is what each
/// entry stores — a new entry has `λ·now` (CRF 1), a hit moves it to
/// `log2(1 + 2^(key − λ·now)) + λ·now` — and victims are taken from a
/// set ordered by `(key, last_ref, ChunkKey)`. In the log domain the key
/// cannot underflow (the linear CRF is exactly 0.0 after ≈ 2 150 ticks
/// at λ = 0.5, which made every old entry tie), and `last_ref` is unique
/// per reference, so the order is total: the same access sequence
/// evicts the same chunks in every process.
///
/// A hit costs one `exp2`/`log2` pair and two stores; it does not touch
/// the ordered set. A hit only ever raises an entry's key, so the set's
/// first element, if it has not been hit since it was filed, is the
/// true minimum; if it has, eviction re-files it under its current key
/// and looks again. A miss that evicts costs O(log n) per victim plus
/// one re-filing per entry hit since the last eviction passed over it.
///
/// A departed entry is released after `inner` is unlocked. When no query
/// still holds its chunk, the chunk's value buffer goes to the cache's
/// [`Spares`], which a miss decodes into, so a cache at capacity turns
/// over its own memory instead of the allocator's. The spares hold at
/// most a quarter of the capacity and are not charged to it: admission,
/// LRFU keys, victims and byte counters are what they are without them.
#[derive(Debug)]
pub struct LlapCache {
    inner: Mutex<CacheInner>,
    capacity_bytes: usize,
    lambda: f64,
    stats: CacheStats,
    spares: Spares,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<ChunkKey, Entry>,
    /// One element per resident entry: `(filed.0, filed.1, chunk)`.
    order: BTreeSet<(u64, u64, ChunkKey)>,
    bytes: usize,
    tick: u64,
    /// `(bytes, live entry refs)` per shared dictionary; the bytes are
    /// added to `bytes` when the first referencing entry is inserted
    /// and released when the last one leaves.
    dict_charges: HashMap<DictKey, (usize, usize)>,
}

/// Map an `f64` to a `u64` whose unsigned order is `f64::total_cmp`'s,
/// so LRFU keys sort as integers (a NaN key — NaN λ — still sorts).
fn ord_bits(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

impl CacheInner {
    /// Drop `key`'s entry: its order element and its charges. The chunk
    /// comes back, for the caller to release once it has unlocked.
    fn remove(&mut self, key: &ChunkKey) -> Option<Arc<ColumnVector>> {
        let e = self.entries.remove(key)?;
        self.order.remove(&(e.filed.0, e.filed.1, *key));
        Some(self.release(e))
    }

    /// Give back a departed entry's bytes, and its dictionary's when it
    /// was the last reference; returns its chunk.
    fn release(&mut self, e: Entry) -> Arc<ColumnVector> {
        self.bytes -= e.bytes;
        if let Some(dk) = e.dict_key {
            if let Some(c) = self.dict_charges.get_mut(&dk) {
                c.1 -= 1;
                if c.1 == 0 {
                    self.bytes -= c.0;
                    self.dict_charges.remove(&dk);
                }
            }
        }
        e.data
    }

    /// Evict the entry with the lowest LRFU key and return its chunk;
    /// `None` when empty.
    fn evict_one(&mut self) -> Option<Arc<ColumnVector>> {
        while let Some((_, filed_at, victim)) = self.order.pop_first() {
            match self.entries.get_mut(&victim) {
                // Hit since it was filed: its key only rose, so re-file
                // it and look at the new first element.
                Some(e) if e.last_ref != filed_at => {
                    e.filed = (ord_bits(e.key), e.last_ref);
                    self.order.insert((e.filed.0, e.filed.1, victim));
                }
                Some(_) => {
                    let e = self.entries.remove(&victim)?;
                    return Some(self.release(e));
                }
                // Unreachable while `order` mirrors `entries`; an
                // orphan element is simply dropped.
                None => {}
            }
        }
        None
    }
}

impl LlapCache {
    /// A cache bounded to `capacity_bytes` with LRFU decay `lambda`.
    pub fn new(capacity_bytes: usize, lambda: f64) -> Self {
        LlapCache {
            inner: Mutex::new(CacheInner::default()),
            capacity_bytes,
            lambda: lambda.clamp(0.0, 1.0),
            stats: CacheStats::default(),
            spares: Spares::new(capacity_bytes / 4),
        }
    }

    /// Value buffers of released chunks, for a miss's decode to fill.
    pub fn spares(&self) -> &Spares {
        &self.spares
    }

    /// Release departed chunks; call with `inner` unlocked. A chunk no
    /// query holds gives its value buffer to the spares.
    fn recycle(&self, victims: impl IntoIterator<Item = Arc<ColumnVector>>) {
        for victim in victims {
            #[cfg(test)]
            tests::count_release(self.inner.try_lock().is_some());
            if let Ok(col) = Arc::try_unwrap(victim) {
                self.spares.keep(col);
            }
        }
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Current resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Number of cached chunks.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a chunk, loading it on miss via `load` (the I/O elevator's
    /// fetch-and-decode path).
    pub fn get_or_load(
        &self,
        key: ChunkKey,
        load: impl FnOnce() -> Result<ColumnVector>,
    ) -> Result<Arc<ColumnVector>> {
        self.get_or_load_with_fault(key, None, load)
    }

    /// [`LlapCache::get_or_load`] with fault injection: a hit may be
    /// detected as corrupt (per the injector's deterministic roll), in
    /// which case the entry is dropped and the read degrades to the
    /// `load` path — the graceful cache→DFS degradation rung of the
    /// recovery ladder.
    pub fn get_or_load_with_fault(
        &self,
        key: ChunkKey,
        fault: Option<&FaultInjector>,
        load: impl FnOnce() -> Result<ColumnVector>,
    ) -> Result<Arc<ColumnVector>> {
        let corrupt = {
            let mut g = self.inner.lock();
            g.tick += 1;
            let now = g.tick;
            let mut corrupt = None;
            if let Some(e) = g.entries.get_mut(&key) {
                if fault.is_some_and(|f| f.cache_chunk_corrupt(key.hash64())) {
                    self.stats.corrupt_misses.fetch_add(1, Ordering::Relaxed);
                    corrupt = g.remove(&key);
                    // Fall through to the miss path below.
                } else {
                    let lam_now = self.lambda * now as f64;
                    e.key = (1.0 + (e.key - lam_now).exp2()).log2() + lam_now;
                    e.last_ref = now;
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .bytes_served_from_cache
                        .fetch_add(e.bytes as u64, Ordering::Relaxed);
                    return Ok(e.data.clone());
                }
            }
            corrupt
        };
        self.recycle(corrupt);
        // Miss: load outside the lock.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let col = load()?;
        self.stats
            .bytes_loaded
            .fetch_add(col.approx_bytes() as u64, Ordering::Relaxed);
        let (bytes, dict_info) = chunk_cost(&key, &col);
        let data = Arc::new(col);
        let mut guard = self.inner.lock();
        let g = &mut *guard;
        g.tick += 1;
        let now = g.tick;
        // Two workers can miss on the same chunk concurrently (the load
        // runs outside the lock); the loser's insert replaces the
        // winner's entry, whose charges go back first.
        let mut victims: Vec<Arc<ColumnVector>> = g.remove(&key).into_iter().collect();
        // Cost of admitting this chunk right now: its own bytes plus
        // the dictionary when no resident entry shares it yet
        // (re-evaluated inside the eviction loop, since evicting the
        // dictionary's last other holder re-adds its bytes to our bill).
        let admit_cost = |g: &CacheInner| {
            bytes
                + match &dict_info {
                    Some((dk, db)) if !g.dict_charges.contains_key(dk) => *db,
                    _ => 0,
                }
        };
        // Evict lowest-key entries until the new chunk fits. Chunks
        // larger than the whole cache bypass it.
        if admit_cost(g) <= self.capacity_bytes {
            while g.bytes + admit_cost(g) > self.capacity_bytes {
                let Some(victim) = g.evict_one() else {
                    break;
                };
                victims.push(victim);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            let dict_key = dict_info.map(|(dk, db)| {
                let c = g.dict_charges.entry(dk).or_insert((db, 0));
                if c.1 == 0 {
                    // First resident reference carries the dictionary.
                    g.bytes += db;
                }
                c.1 += 1;
                dk
            });
            g.bytes += bytes;
            // CRF 1 at `now`: log2(1) + λ·now.
            let lrfu_key = self.lambda * now as f64;
            let filed = (ord_bits(lrfu_key), now);
            g.order.insert((filed.0, filed.1, key));
            g.entries.insert(
                key,
                Entry {
                    data: data.clone(),
                    bytes,
                    dict_key,
                    key: lrfu_key,
                    last_ref: now,
                    filed,
                },
            );
        }
        drop(guard);
        self.recycle(victims);
        Ok(data)
    }

    /// Drop every cached chunk (tests / manual flush).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        let entries = std::mem::take(&mut g.entries);
        g.order.clear();
        g.dict_charges.clear();
        g.bytes = 0;
        drop(g);
        self.recycle(entries.into_values().map(|e| e.data));
    }

    /// Drop the share of the cache owned by daemon `node` out of a
    /// fleet of `nodes` (daemon death: its resident chunks are gone).
    /// Chunks are partitioned by key hash, the same consistent mapping
    /// a distributed cache would use.
    pub fn evict_node_share(&self, node: usize, nodes: usize) {
        if nodes == 0 {
            return;
        }
        let mut g = self.inner.lock();
        let keys: Vec<ChunkKey> = g
            .entries
            .keys()
            .filter(|k| k.hash64() as usize % nodes == node)
            .copied()
            .collect();
        let victims: Vec<Arc<ColumnVector>> = keys.iter().filter_map(|k| g.remove(k)).collect();
        self.stats
            .evictions
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        drop(g);
        self.recycle(victims);
    }
}

/// Footer/metadata cache: open corc files keyed by path + FileId.
/// "The metadata, including index information, is cached even for data
/// that was never in the cache" — sargs evaluate against this before
/// any chunk is fetched.
#[derive(Debug, Default)]
pub struct MetadataCache {
    inner: Mutex<HashMap<DfsPath, (FileId, CorcFile)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MetadataCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a file through the cache; the FileId check invalidates
    /// entries if a path is ever reused by a new file.
    pub fn open(&self, fs: &DistFs, path: &DfsPath) -> Result<CorcFile> {
        let current_id = fs.stat(path)?.file_id;
        {
            let g = self.inner.lock();
            if let Some((id, f)) = g.get(path) {
                if *id == current_id {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(f.clone());
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let f = CorcFile::open(fs, path)?;
        self.inner
            .lock()
            .insert(path.clone(), (current_id, f.clone()));
        Ok(f)
    }

    /// (hits, misses).
    pub fn hit_miss(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hive_common::HiveError;

    thread_local! {
        /// Chunks this thread released, and how many of those with the
        /// cache's `inner` unlocked.
        static RELEASES: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
    }

    pub(crate) fn count_release(unlocked: bool) {
        RELEASES.with(|r| {
            let (all, free) = r.get();
            r.set((all + 1, free + usize::from(unlocked)));
        });
    }

    /// `(released, released unlocked)` on this thread so far.
    pub(crate) fn releases() -> (usize, usize) {
        RELEASES.with(|r| r.get())
    }

    fn chunk(n: usize) -> ColumnVector {
        ColumnVector::BigInt(vec![7; n], None)
    }

    /// `chunk(100).approx_bytes()`.
    const CHUNK: usize = 812;

    fn key(f: u64, c: usize, rg: usize) -> ChunkKey {
        ChunkKey {
            file: FileId(f),
            column: c,
            row_group: rg,
        }
    }

    #[test]
    fn hit_after_load() {
        let cache = LlapCache::new(1 << 20, 0.5);
        let k = key(1, 0, 0);
        let a = cache.get_or_load(k, || Ok(chunk(100))).unwrap();
        let b = cache.get_or_load(k, || panic!("must not reload")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hit_miss(), (1, 1));
    }

    #[test]
    fn eviction_respects_capacity() {
        // Each chunk ~800 bytes; capacity for ~3.
        let cache = LlapCache::new(2600, 1.0);
        for i in 0..10 {
            cache.get_or_load(key(i, 0, 0), || Ok(chunk(100))).unwrap();
        }
        assert!(cache.resident_bytes() <= 2600);
        assert!(cache.len() <= 3);
        assert!(cache.stats().evictions.load(Ordering::Relaxed) >= 7);
    }

    #[test]
    fn lrfu_lru_mode_keeps_recent() {
        // λ=1 ≈ LRU: after touching key 0 repeatedly long ago, a recent
        // stream should evict it only after fresher entries.
        let cache = LlapCache::new(1700, 1.0); // fits 2 chunks
        cache.get_or_load(key(0, 0, 0), || Ok(chunk(100))).unwrap();
        cache.get_or_load(key(1, 0, 0), || Ok(chunk(100))).unwrap();
        // Touch key 1 (most recent), then insert key 2 → evict key 0.
        cache
            .get_or_load(key(1, 0, 0), || panic!("hit expected"))
            .unwrap();
        cache.get_or_load(key(2, 0, 0), || Ok(chunk(100))).unwrap();
        let mut reloaded0 = false;
        cache
            .get_or_load(key(0, 0, 0), || {
                reloaded0 = true;
                Ok(chunk(100))
            })
            .unwrap();
        assert!(reloaded0, "LRU-ish mode should have evicted key 0");
    }

    #[test]
    fn lrfu_lfu_mode_keeps_frequent() {
        // λ=0 ≈ LFU: a frequently-referenced entry survives a scan of
        // one-shot entries.
        let cache = LlapCache::new(1700, 0.0); // fits 2 chunks
        for _ in 0..10 {
            cache.get_or_load(key(0, 0, 0), || Ok(chunk(100))).unwrap();
        }
        for i in 1..6 {
            cache.get_or_load(key(i, 0, 0), || Ok(chunk(100))).unwrap();
        }
        let mut reloaded0 = false;
        cache
            .get_or_load(key(0, 0, 0), || {
                reloaded0 = true;
                Ok(chunk(100))
            })
            .unwrap();
        assert!(!reloaded0, "LFU-ish mode should retain the hot chunk");
    }

    #[test]
    fn oversized_chunks_bypass() {
        let cache = LlapCache::new(100, 0.5);
        cache.get_or_load(key(1, 0, 0), || Ok(chunk(1000))).unwrap();
        assert_eq!(cache.len(), 0, "oversized chunk must not be cached");
    }

    #[test]
    fn racing_same_key_loads_keep_byte_accounting_exact() {
        // Two workers miss on the same chunk at once (loads run outside
        // the lock); the second insert replaces the first and must not
        // double-count the entry's bytes.
        let cache = LlapCache::new(1 << 20, 0.5);
        let k = key(1, 0, 0);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    cache
                        .get_or_load(k, || {
                            barrier.wait(); // both threads are mid-load → both miss
                            Ok(chunk(100))
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), chunk(100).approx_bytes());
    }

    #[test]
    fn load_errors_propagate() {
        let cache = LlapCache::new(1 << 20, 0.5);
        let r = cache.get_or_load(key(9, 0, 0), || Err(HiveError::Io("disk gone".into())));
        assert!(r.is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn chunk_key_hash64_is_pinned() {
        // FNV-1a over the key's fields, little-endian. These values are
        // part of the replay contract: HIVE_FAULT_SEED schedules and
        // daemon cache partitioning key off hash64, so it must never
        // change — not even across Rust toolchain releases.
        assert_eq!(key(1, 0, 0).hash64(), 0x5b2a_969b_42d2_38a4);
        assert_eq!(key(0xDEAD_BEEF, 3, 7).hash64(), 0xbb59_cec2_b614_3d3f);
        // And it must distinguish fields that a naive XOR would merge.
        assert_ne!(key(1, 2, 3).hash64(), key(1, 3, 2).hash64());
        assert_ne!(key(2, 1, 3).hash64(), key(1, 2, 3).hash64());
    }

    // ---- LRFU order: determinism, no underflow, the O(n) model ---------

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn resident(cache: &LlapCache) -> BTreeSet<ChunkKey> {
        cache.inner.lock().entries.keys().copied().collect()
    }

    /// `order` holds exactly the resident entries under the tuple each
    /// is filed at, and `bytes` is the sum over entries plus the live
    /// dictionary charges.
    fn assert_in_step(cache: &LlapCache) {
        let g = cache.inner.lock();
        assert_eq!(g.order.len(), g.entries.len(), "order size");
        for (k, e) in &g.entries {
            assert!(
                g.order.contains(&(e.filed.0, e.filed.1, *k)),
                "{k:?} not filed where its entry says"
            );
        }
        let own: usize = g.entries.values().map(|e| e.bytes).sum();
        let dicts: usize = g.dict_charges.values().map(|c| c.0).sum();
        assert_eq!(g.bytes, own + dicts, "resident bytes");
        let refs: usize = g.dict_charges.values().map(|c| c.1).sum();
        assert_eq!(
            refs,
            g.entries.values().filter(|e| e.dict_key.is_some()).count(),
            "dictionary reference counts"
        );
    }

    /// A seeded get/insert trace over `keys` distinct chunks.
    fn trace(seed: u64, len: usize, keys: u64) -> Vec<ChunkKey> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                // Skewed: a few hot chunks among one-shot ones.
                let k = if rng.gen_bool(0.4) {
                    rng.gen_range(0..4)
                } else {
                    rng.gen_range(0..keys)
                };
                key(k, 0, 0)
            })
            .collect()
    }

    /// Replay `ops` and record the resident set after every reference.
    fn replay(cache: &LlapCache, ops: &[ChunkKey]) -> Vec<BTreeSet<ChunkKey>> {
        ops.iter()
            .map(|&k| {
                cache.get_or_load(k, || Ok(chunk(100))).unwrap();
                resident(cache)
            })
            .collect()
    }

    #[test]
    fn same_trace_evicts_the_same_victims_every_time() {
        // Long enough that at λ = 0.5 the linear CRF of the early
        // entries is exactly 0.0 — where the old chooser tied and fell
        // back on `HashMap` iteration order.
        let ops = trace(7, 6000, 40);
        for lambda in [0.0, 0.5, 1.0] {
            let a = LlapCache::new(8 * CHUNK, lambda);
            let first = replay(&a, &ops);
            let b = LlapCache::new(8 * CHUNK, lambda);
            assert_eq!(replay(&b, &ops), first, "two instances, λ={lambda}");
            a.clear();
            let again = replay(&a, &ops);
            // Ticks differ after `clear` (the clock keeps running), the
            // order of any two keys does not.
            assert_eq!(again, first, "same instance twice, λ={lambda}");
            assert!(a.stats().evictions.load(Ordering::Relaxed) > 1000);
        }
    }

    #[test]
    fn entries_ten_thousand_ticks_apart_still_order() {
        let touch = |cache: &LlapCache, k: u64| {
            cache.get_or_load(key(k, 0, 0), || Ok(chunk(100))).unwrap();
        };
        let age = |cache: &LlapCache| cache.inner.lock().tick += 10_000;
        let has = |cache: &LlapCache, k: u64| resident(cache).contains(&key(k, 0, 0));

        // λ = 0.5: one-shot entries 10 000 ticks apart evict oldest
        // first, though every one of them has linear CRF 0.0 by then.
        let cache = LlapCache::new(3 * CHUNK, 0.5);
        for k in 0..3 {
            touch(&cache, k);
            age(&cache);
        }
        for k in 0..3 {
            touch(&cache, 10 + k);
            assert!(!has(&cache, k), "λ=0.5 kept {k} past its elders");
            assert!((k + 1..3).all(|later| has(&cache, later)));
        }

        // λ = 0: reference counts decide, however long ago they were
        // made; equal counts fall to the older last reference.
        let cache = LlapCache::new(3 * CHUNK, 0.0);
        for (k, refs) in [(0, 3), (1, 1), (2, 2)] {
            for _ in 0..refs {
                touch(&cache, k);
            }
            age(&cache);
        }
        touch(&cache, 10); // evicts 1 (one reference)
        assert!(!has(&cache, 1) && has(&cache, 0) && has(&cache, 2));
        touch(&cache, 10);
        touch(&cache, 10); // 10 now has three
        touch(&cache, 11); // evicts 2 (two references)
        assert!(!has(&cache, 2) && has(&cache, 0) && has(&cache, 10));
        for _ in 0..3 {
            touch(&cache, 11);
        }
        touch(&cache, 12); // 0 and 10 tie on three: 0 was touched longer ago
        assert!(!has(&cache, 0) && has(&cache, 10) && has(&cache, 11));
        assert_in_step(&cache);
    }

    /// The chooser this cache used to run on every miss: decay every
    /// resident entry's linear CRF to `now` and take the minimum — kept
    /// here as the model the ordered set is checked against. Ties (the
    /// old code left them to `HashMap` order) go to the older reference.
    #[derive(Default)]
    struct LinearLrfu {
        entries: BTreeMap<ChunkKey, (f64, u64)>,
        tick: u64,
    }

    impl LinearLrfu {
        fn reference(&mut self, k: ChunkKey, lambda: f64, capacity: usize) {
            self.tick += 1;
            let now = self.tick;
            if let Some((crf, last)) = self.entries.get_mut(&k) {
                *crf = 1.0 + *crf * 2f64.powf(-lambda * (now - *last) as f64);
                *last = now;
                return;
            }
            self.tick += 1;
            let now = self.tick;
            while self.entries.len() >= capacity {
                let crf_now =
                    |(crf, last): &(f64, u64)| crf * 2f64.powf(-lambda * (now - last) as f64);
                let victim = *self
                    .entries
                    .iter()
                    .min_by(|(_, a), (_, b)| crf_now(a).total_cmp(&crf_now(b)).then(a.1.cmp(&b.1)))
                    .unwrap()
                    .0;
                self.entries.remove(&victim);
            }
            self.entries.insert(k, (1.0, now));
        }
    }

    #[test]
    fn ordered_set_picks_the_linear_choosers_victims() {
        for lambda in [0.0, 0.01, 0.5, 1.0] {
            for seed in 0..20 {
                // Short enough that 2^(−λ·Δt) stays a normal number.
                let ops = trace(seed, 400, 30);
                let cache = LlapCache::new(6 * CHUNK, lambda);
                let mut model = LinearLrfu::default();
                for (i, &k) in ops.iter().enumerate() {
                    cache.get_or_load(k, || Ok(chunk(100))).unwrap();
                    model.reference(k, lambda, 6);
                    assert_eq!(
                        resident(&cache),
                        model.entries.keys().copied().collect(),
                        "λ={lambda} seed={seed} op {i}"
                    );
                }
                assert_in_step(&cache);
            }
        }
    }

    #[test]
    fn order_and_bytes_stay_in_step_under_any_mix() {
        let dicts: Vec<Arc<Vec<String>>> = (0..3)
            .map(|d| Arc::new(vec![format!("dict{d}-a"), format!("dict{d}-bb")]))
            .collect();
        let faults = FaultInjector::new();
        faults.set_plan(hive_common::FaultPlan {
            seed: 11,
            cache_corruption_prob: 0.3,
            ..hive_common::FaultPlan::none()
        });
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cache = LlapCache::new(9000, [0.0, 0.5, 1.0][seed as usize % 3]);
            for _ in 0..600 {
                let k = key(
                    rng.gen_range(0..3),
                    rng.gen_range(0..2),
                    rng.gen_range(0..6),
                );
                // Column 1 of each file is dictionary-encoded.
                let load = |rows: usize| -> Result<ColumnVector> {
                    Ok(if k.column == 1 {
                        dict_chunk(&dicts[k.file.0 as usize], rows)
                    } else {
                        chunk(rows)
                    })
                };
                match rng.gen_range(0..20) {
                    0 => cache.clear(),
                    1 => cache.evict_node_share(rng.gen_range(0..3), 3),
                    // Two loads of one key in flight: the inner insert
                    // lands first, the outer replaces it.
                    2 | 3 => {
                        cache
                            .get_or_load(k, || {
                                cache.get_or_load(k, || load(120))?;
                                load(120)
                            })
                            .unwrap();
                    }
                    4..=8 => {
                        cache
                            .get_or_load_with_fault(k, Some(&faults), || load(150))
                            .unwrap();
                    }
                    _ => {
                        cache.get_or_load(k, || load(100)).unwrap();
                    }
                }
                assert_in_step(&cache);
                assert!(cache.resident_bytes() <= 9000);
                assert!(cache.spares().bytes() <= 9000 / 4);
            }
            assert!(cache.stats().corrupt_misses.load(Ordering::Relaxed) > 0);
        }
    }

    fn dict_chunk(dict: &Arc<Vec<String>>, rows: usize) -> ColumnVector {
        let codes: Vec<u32> = (0..rows).map(|i| (i % dict.len()) as u32).collect();
        ColumnVector::dict_from_codes(codes, dict.clone(), None).unwrap()
    }

    #[test]
    fn shared_dictionary_charged_once() {
        let cache = LlapCache::new(1 << 20, 0.5);
        let dict = Arc::new(vec!["aaaaaaaa".to_string(), "bbbbbbbb".to_string()]);
        let dict_bytes: usize = dict.iter().map(|s| s.len() + 24).sum();
        let codes_bytes = 100 * 4 + 100 / 8;
        // Two row-group chunks of the same (file, column) share the
        // dictionary Arc — the second must charge its codes only.
        cache
            .get_or_load(key(1, 0, 0), || Ok(dict_chunk(&dict, 100)))
            .unwrap();
        assert_eq!(cache.resident_bytes(), codes_bytes + dict_bytes);
        cache
            .get_or_load(key(1, 0, 1), || Ok(dict_chunk(&dict, 100)))
            .unwrap();
        assert_eq!(
            cache.resident_bytes(),
            2 * codes_bytes + dict_bytes,
            "second chunk of the column double-counted the dictionary"
        );
        // A different column's dictionary (distinct Arc) is its own charge.
        let other = Arc::new(vec!["cc".to_string()]);
        cache
            .get_or_load(key(1, 1, 0), || Ok(dict_chunk(&other, 100)))
            .unwrap();
        let other_bytes: usize = other.iter().map(|s| s.len() + 24).sum();
        assert_eq!(
            cache.resident_bytes(),
            3 * codes_bytes + dict_bytes + other_bytes
        );
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn evicting_last_holder_releases_dictionary_bytes() {
        let cache = LlapCache::new(1 << 20, 0.5);
        let dict = Arc::new(vec!["xxxxxxxxxxxxxxxx".to_string()]);
        cache
            .get_or_load(key(1, 0, 0), || Ok(dict_chunk(&dict, 50)))
            .unwrap();
        cache
            .get_or_load(key(1, 0, 1), || Ok(dict_chunk(&dict, 50)))
            .unwrap();
        let full = cache.resident_bytes();
        // Daemon-death eviction drops both entries; all dictionary
        // bytes must come back (refcount reaches zero exactly once).
        assert!(full > 0);
        cache.evict_node_share(0, 1);
        cache.evict_node_share(1, 1);
        // nodes=1 maps every key to node 0; the second call is a no-op.
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.len(), 0);
    }

    /// A corc file of `groups` row groups of 1 000 distinct BIGINTs.
    fn bigint_file(groups: usize) -> CorcFile {
        use hive_common::{DataType, Field, Schema, VectorBatch};
        let schema = Schema::new(vec![Field::new("v", DataType::BigInt)]);
        let vals = (0..groups as i64 * 1000)
            .map(|i| i * 7919 % 1_000_003)
            .collect();
        let batch = VectorBatch::new(schema, vec![ColumnVector::BigInt(vals, None)]).unwrap();
        let opts = hive_corc::WriterOptions {
            row_group_size: 1000,
            ..Default::default()
        };
        let fs = DistFs::new();
        let path = DfsPath::new("/t/spares");
        let bytes = hive_corc::writer::write_batch_to_bytes(&batch, opts).unwrap();
        fs.create(&path, bytes).unwrap();
        CorcFile::open(&fs, &path).unwrap()
    }

    #[test]
    fn a_held_chunk_keeps_its_values_through_misses_that_take_spares() {
        let file = bigint_file(40);
        let chunk_bytes = file.read_column_chunk_encoded(0, 0).unwrap().approx_bytes();
        // Eight chunks resident; the spares hold two value buffers.
        let cache = LlapCache::new(8 * chunk_bytes, 1.0);
        let load = |rg: usize| {
            cache
                .get_or_load(key(1, 0, rg), || {
                    file.read_column_chunk_encoded_with(rg, 0, Some(cache.spares()))
                })
                .unwrap()
        };
        let held = load(0);
        let want = file.read_column_chunk_encoded(0, 0).unwrap();
        for rg in 1..40 {
            let got = load(rg);
            assert_eq!(
                *got,
                file.read_column_chunk_encoded(rg, 0).unwrap(),
                "rg {rg}"
            );
            // From the second eviction on, each miss takes the buffer the
            // one before it shelved: the shelves never hold two.
            if rg >= 10 {
                assert_eq!(cache.spares().bytes(), 1000 * 8, "rg {rg}");
            }
            assert_eq!(*held, want, "held chunk changed at rg {rg}");
        }
        assert!(!resident(&cache).contains(&key(1, 0, 0)));
        assert_eq!(cache.stats().evictions.load(Ordering::Relaxed), 40 - 8);
    }

    #[test]
    fn spares_never_pass_a_quarter_of_the_capacity() {
        for capacity in [0, CHUNK, 3 * CHUNK, 4 * CHUNK, 40 * CHUNK] {
            let cache = LlapCache::new(capacity, 0.5);
            for i in 0..200 {
                cache.get_or_load(key(i, 0, 0), || Ok(chunk(100))).unwrap();
                assert!(cache.spares().bytes() <= capacity / 4, "{capacity}");
            }
            cache.clear();
            assert!(cache.spares().bytes() <= capacity / 4, "{capacity}");
        }
    }
}
