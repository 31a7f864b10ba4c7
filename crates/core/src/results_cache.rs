//! The query results cache (paper §4.3).
//!
//! Each HS2 instance keeps a cache mapping the resolved query to the
//! result plus the transactional snapshot it was computed under. The
//! driver keys it by the *analyzed* plan's fingerprint — the paper's
//! "unqualified table references … resolved before the AST is used to
//! probe the cache" — and probes between analysis and optimization, so a
//! hit never plans (DESIGN.md §4.3). An entry answers a probe only while
//! every participating table is the same incarnation at the same WriteId
//! high watermark ([`TableVersion`]) — "if the tables used by the query
//! do not contain new or modified data", and are still the tables they
//! were: WriteId counters are kept per name and survive `DROP TABLE`.
//!
//! The **pending entry** mode protects against a thundering herd of
//! identical queries after a data change: the first miss claims the key,
//! concurrent probers wait for it to fill instead of recomputing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hive_common::VectorBatch;
use hive_metastore::TableVersion;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

/// What a hit serves: the rows, and what only optimizing the query —
/// which a hit does not do — would otherwise tell the client.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The result rows.
    pub batch: VectorBatch,
    /// Whether the plan that computed them was rewritten over a
    /// materialized view.
    pub used_mv: bool,
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum CacheOutcome {
    /// A valid entry — there from the start, or filled by an identical
    /// query this call waited for; serve it.
    Hit(CachedResult),
    /// No valid entry; the caller must execute and then call
    /// [`QueryResultsCache::fill`] (or [`QueryResultsCache::abandon`]
    /// on failure). The caller holds the pending claim.
    MissClaimed,
}

#[derive(Debug, Clone)]
struct Entry {
    result: CachedResult,
    /// (table, version) at computation time, over every table the
    /// query named and every table its executed plan read.
    snapshot: Vec<(String, TableVersion)>,
    /// Logical clock for LRU eviction.
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    pending: HashMap<u64, usize>, // key → waiter epoch marker
    tick: u64,
}

/// The per-server results cache.
#[derive(Debug)]
pub struct QueryResultsCache {
    inner: Mutex<Inner>,
    filled: Condvar,
    capacity: usize,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl QueryResultsCache {
    /// A cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(QueryResultsCache {
            inner: Mutex::new(Inner::default()),
            filled: Condvar::new(),
            capacity: capacity.max(1),
            hits: Default::default(),
            misses: Default::default(),
        })
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(std::sync::atomic::Ordering::Relaxed),
            self.misses.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// Probe for `key`. `current(table)` reports the table's version
    /// now, for validity checking.
    pub fn probe(&self, key: u64, current: impl Fn(&str) -> TableVersion) -> CacheOutcome {
        let mut g = self.inner.lock();
        loop {
            g.tick += 1;
            let tick = g.tick;
            if let Some(e) = g.entries.get_mut(&key) {
                let valid = e.snapshot.iter().all(|(t, was)| current(t) == *was);
                if valid {
                    e.last_used = tick;
                    let out = e.result.clone();
                    self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    return CacheOutcome::Hit(out);
                }
                // Stale: expunge.
                g.entries.remove(&key);
            }
            if g.pending.contains_key(&key) {
                // Thundering-herd protection: wait for the first query
                // to fill the entry, then re-probe.
                self.filled.wait(&mut g);
                continue;
            }
            g.pending.insert(key, 1);
            self.misses
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return CacheOutcome::MissClaimed;
        }
    }

    /// Fill a previously claimed key.
    pub fn fill(&self, key: u64, result: CachedResult, snapshot: Vec<(String, TableVersion)>) {
        let mut g = self.inner.lock();
        g.pending.remove(&key);
        g.tick += 1;
        let tick = g.tick;
        // LRU eviction.
        while g.entries.len() >= self.capacity {
            if let Some((&victim, _)) = g.entries.iter().min_by_key(|(_, e)| e.last_used) {
                g.entries.remove(&victim);
            } else {
                break;
            }
        }
        g.entries.insert(
            key,
            Entry {
                result,
                snapshot,
                last_used: tick,
            },
        );
        drop(g);
        self.filled.notify_all();
    }

    /// Release a claim without filling (execution failed or the query is
    /// uncacheable).
    pub fn abandon(&self, key: u64) {
        let mut g = self.inner.lock();
        g.pending.remove(&key);
        drop(g);
        self.filled.notify_all();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{DataType, Field, Row, Schema, Value, WriteId};

    fn batch(v: i64) -> CachedResult {
        let batch = VectorBatch::from_rows(
            &Schema::new(vec![Field::new("x", DataType::BigInt)]),
            &[Row::new(vec![Value::BigInt(v)])],
        )
        .unwrap();
        CachedResult {
            batch,
            used_mv: false,
        }
    }

    /// The first creation of a name, at this WriteId high watermark.
    fn at(hwm: u64) -> TableVersion {
        TableVersion {
            incarnation: 1,
            hwm: WriteId(hwm),
        }
    }

    #[test]
    fn miss_fill_hit() {
        let c = QueryResultsCache::new(8);
        let hwm = |_: &str| at(5);
        assert!(matches!(c.probe(1, hwm), CacheOutcome::MissClaimed));
        c.fill(1, batch(42), vec![("default.t".into(), at(5))]);
        match c.probe(1, hwm) {
            CacheOutcome::Hit(b) => assert_eq!(b.batch.row(0).get(0), &Value::BigInt(42)),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn invalidated_by_new_writes() {
        let c = QueryResultsCache::new(8);
        assert!(matches!(c.probe(1, |_| at(5)), CacheOutcome::MissClaimed));
        c.fill(1, batch(1), vec![("default.t".into(), at(5))]);
        // Table advanced to WriteId 6: entry is stale, new claim issued.
        assert!(matches!(c.probe(1, |_| at(6)), CacheOutcome::MissClaimed));
        assert_eq!(c.len(), 0, "stale entry expunged");
        c.abandon(1);
    }

    #[test]
    fn invalidated_by_a_new_incarnation_at_the_same_watermark() {
        let c = QueryResultsCache::new(8);
        assert!(matches!(c.probe(1, |_| at(5)), CacheOutcome::MissClaimed));
        c.fill(1, batch(1), vec![("default.t".into(), at(5))]);
        // Dropped and re-created: the name's WriteId counter carried on.
        let recreated = TableVersion {
            incarnation: 2,
            ..at(5)
        };
        assert!(matches!(
            c.probe(1, |_| recreated),
            CacheOutcome::MissClaimed
        ));
        c.abandon(1);
    }

    #[test]
    fn lru_eviction_bounds_entries() {
        let c = QueryResultsCache::new(2);
        for k in 0..5u64 {
            assert!(matches!(c.probe(k, |_| at(0)), CacheOutcome::MissClaimed));
            c.fill(k, batch(k as i64), vec![]);
        }
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn pending_entry_blocks_identical_queries() {
        let c = QueryResultsCache::new(8);
        assert!(matches!(c.probe(7, |_| at(1)), CacheOutcome::MissClaimed));
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || match c2.probe(7, |_: &str| at(1)) {
            CacheOutcome::Hit(b) => b.batch.row(0).get(0).as_i64().unwrap(),
            other => panic!("expected hit after wait, got {other:?}"),
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        c.fill(7, batch(99), vec![("default.t".into(), at(1))]);
        assert_eq!(waiter.join().unwrap(), 99);
        // Only one miss was recorded: the herd was absorbed.
        assert_eq!(c.stats().1, 1);
    }

    #[test]
    fn abandon_releases_waiters() {
        let c = QueryResultsCache::new(8);
        assert!(matches!(c.probe(9, |_| at(1)), CacheOutcome::MissClaimed));
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || {
            matches!(c2.probe(9, |_: &str| at(1)), CacheOutcome::MissClaimed)
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        c.abandon(9);
        assert!(waiter.join().unwrap(), "waiter takes over the claim");
        c.abandon(9);
    }
}
