//! The LLAP daemon fleet: persistent executors plus the shared caches.
//!
//! Daemons are stateless (§5.1): "each contains a number of executors to
//! run several query fragments in parallel and a local work queue.
//! Failure and recovery is simplified because any node can still be used
//! to process any fragment." Here the fleet tracks executor occupancy
//! (used by the scheduler and the workload manager), owns the data and
//! metadata caches, and models daemon death/restart: killing a node
//! removes its executors from the fleet and drops its share of the
//! cache; any surviving node can pick up its fragments.

use crate::cache::{LlapCache, MetadataCache};
use hive_common::FaultInjector;
use parking_lot::Mutex;
use std::sync::Arc;

/// The daemon fleet.
#[derive(Debug, Clone)]
pub struct LlapDaemons {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    nodes: usize,
    executors_per_node: usize,
    busy: Mutex<usize>,
    /// Liveness per node; killed daemons contribute no executors and
    /// lose their cache share until restarted.
    alive: Mutex<Vec<bool>>,
    cache: LlapCache,
    metadata: MetadataCache,
    /// Shared fault injector (the same instance the DFS rolls
    /// against); set by the server at boot.
    fault: Mutex<Option<Arc<FaultInjector>>>,
}

impl LlapDaemons {
    /// Start a fleet of `nodes` daemons with `executors_per_node`
    /// executors each and a cache of `cache_bytes` (cluster-wide).
    pub fn new(
        nodes: usize,
        executors_per_node: usize,
        cache_bytes: usize,
        lrfu_lambda: f64,
    ) -> Self {
        LlapDaemons {
            inner: Arc::new(Inner {
                nodes,
                executors_per_node,
                busy: Mutex::new(0),
                alive: Mutex::new(vec![true; nodes]),
                cache: LlapCache::new(cache_bytes, lrfu_lambda),
                metadata: MetadataCache::new(),
                fault: Mutex::new(None),
            }),
        }
    }

    /// Share the stack-wide fault injector with this fleet.
    pub fn attach_fault(&self, fault: Arc<FaultInjector>) {
        *self.inner.fault.lock() = Some(fault);
    }

    /// The attached fault injector, if any.
    pub fn fault(&self) -> Option<Arc<FaultInjector>> {
        self.inner.fault.lock().clone()
    }

    /// Executor slots on live daemons.
    pub fn total_executors(&self) -> usize {
        self.live_node_count() * self.inner.executors_per_node
    }

    /// Number of daemon nodes in the fleet (live or dead).
    pub fn nodes(&self) -> usize {
        self.inner.nodes
    }

    /// Executors per daemon.
    pub fn executors_per_node(&self) -> usize {
        self.inner.executors_per_node
    }

    /// Number of currently live daemons.
    pub fn live_node_count(&self) -> usize {
        self.inner.alive.lock().iter().filter(|a| **a).count()
    }

    /// Indices of currently live daemons.
    pub fn live_nodes(&self) -> Vec<usize> {
        self.inner
            .alive
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.then_some(i))
            .collect()
    }

    /// Whether the daemon on `node` is alive.
    pub fn is_alive(&self, node: usize) -> bool {
        self.inner.alive.lock().get(node).copied().unwrap_or(false)
    }

    /// Kill the daemon on `node`: its executors leave the fleet and
    /// its share of the cache is dropped (cache contents on a dead
    /// node are gone; §5.1 — the data itself is safe in the DFS, so
    /// readers degrade to DFS loads). Returns false if already dead
    /// or out of range.
    pub fn kill_daemon(&self, node: usize) -> bool {
        {
            let mut alive = self.inner.alive.lock();
            match alive.get_mut(node) {
                Some(a) if *a => *a = false,
                _ => return false,
            }
        }
        self.inner.cache.evict_node_share(node, self.inner.nodes);
        true
    }

    /// Restart the daemon on `node`. It rejoins the fleet with a cold
    /// cache share (the eviction happened at kill time). Returns false
    /// if it was already alive or out of range.
    pub fn restart_daemon(&self, node: usize) -> bool {
        let mut alive = self.inner.alive.lock();
        match alive.get_mut(node) {
            Some(a) if !*a => {
                *a = true;
                true
            }
            _ => false,
        }
    }

    /// The shared data cache.
    pub fn cache(&self) -> &LlapCache {
        &self.inner.cache
    }

    /// The shared metadata cache.
    pub fn metadata(&self) -> &MetadataCache {
        &self.inner.metadata
    }

    /// Try to reserve `n` executors; returns how many were granted
    /// (possibly fewer under load — fragments queue in that case).
    pub fn reserve_executors(&self, n: usize) -> usize {
        let mut busy = self.inner.busy.lock();
        let free = self.total_executors().saturating_sub(*busy);
        let granted = n.min(free);
        *busy += granted;
        granted
    }

    /// Release previously reserved executors.
    pub fn release_executors(&self, n: usize) {
        let mut busy = self.inner.busy.lock();
        *busy = busy.saturating_sub(n);
    }

    /// Reserve up to `n` executors behind an RAII guard, so a failing
    /// (even panicking) fragment cannot leak its slots and wedge the
    /// workload manager's admission accounting.
    pub fn lease_executors(&self, n: usize) -> ExecutorLease {
        let granted = self.reserve_executors(n);
        ExecutorLease {
            daemons: self.clone(),
            granted,
        }
    }

    /// Executors currently busy.
    pub fn busy_executors(&self) -> usize {
        *self.inner.busy.lock()
    }
}

/// RAII reservation of executor slots: dropping the lease releases
/// them, on success, error, and unwind paths alike.
#[derive(Debug)]
pub struct ExecutorLease {
    daemons: LlapDaemons,
    granted: usize,
}

impl ExecutorLease {
    /// How many executors this lease actually holds.
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for ExecutorLease {
    fn drop(&mut self) {
        self.daemons.release_executors(self.granted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_accounting() {
        let d = LlapDaemons::new(2, 4, 1 << 20, 0.5);
        assert_eq!(d.total_executors(), 8);
        assert_eq!(d.reserve_executors(5), 5);
        assert_eq!(d.reserve_executors(5), 3, "only 3 free");
        d.release_executors(4);
        assert_eq!(d.busy_executors(), 4);
        assert_eq!(d.reserve_executors(10), 4);
        d.release_executors(100);
        assert_eq!(d.busy_executors(), 0);
    }

    #[test]
    fn lease_releases_on_drop() {
        let d = LlapDaemons::new(2, 4, 1 << 20, 0.5);
        {
            let lease = d.lease_executors(5);
            assert_eq!(lease.granted(), 5);
            assert_eq!(d.busy_executors(), 5);
        }
        assert_eq!(d.busy_executors(), 0);
    }

    #[test]
    fn lease_releases_on_panic() {
        let d = LlapDaemons::new(2, 4, 1 << 20, 0.5);
        let d2 = d.clone();
        let result = std::panic::catch_unwind(move || {
            let _lease = d2.lease_executors(6);
            panic!("fragment died");
        });
        assert!(result.is_err());
        assert_eq!(
            d.busy_executors(),
            0,
            "panicking fragment must not leak slots"
        );
    }

    #[test]
    fn kill_and_restart_change_fleet_capacity() {
        let d = LlapDaemons::new(3, 4, 1 << 20, 0.5);
        assert_eq!(d.total_executors(), 12);
        assert!(d.kill_daemon(1));
        assert!(!d.kill_daemon(1), "already dead");
        assert!(!d.is_alive(1));
        assert_eq!(d.total_executors(), 8);
        assert_eq!(d.live_nodes(), vec![0, 2]);
        assert!(d.restart_daemon(1));
        assert!(!d.restart_daemon(1), "already alive");
        assert_eq!(d.total_executors(), 12);
        assert!(!d.kill_daemon(99), "out of range");
    }

    /// A killed daemon's share leaves the cache, and it and a chunk
    /// dropped as corrupt on a hit are released with the cache unlocked:
    /// their buffers go to the spares, except one a reader still holds.
    #[test]
    fn kill_drops_cache_share() {
        use crate::cache::{tests::releases, ChunkKey};
        use hive_common::{ColumnVector, FaultInjector, FaultPlan, FileId};
        let d = LlapDaemons::new(4, 2, 1 << 20, 0.5);
        let key = |i| ChunkKey {
            file: FileId(i),
            column: 0,
            row_group: 0,
        };
        let chunks: Vec<_> = (0..64)
            .map(|i| {
                d.cache()
                    .get_or_load(key(i), || Ok(ColumnVector::BigInt(vec![1; 16], None)))
                    .unwrap()
            })
            .collect();
        // A reader holds the first chunk of node 2's share.
        let held = (0..64).find(|&i| key(i).hash64() % 4 == 2).unwrap();
        let held = chunks[held as usize].clone();
        drop(chunks);
        let before = d.cache().len();
        assert_eq!(before, 64);
        let released = releases();
        d.kill_daemon(2);
        let after = d.cache().len();
        assert!(after < before, "killed node's share must be evicted");
        assert!(after > 0, "only one node's share is lost");
        let gone = before - after;
        assert_eq!(releases(), (released.0 + gone, released.1 + gone));
        assert_eq!(d.cache().spares().bytes(), (gone - 1) * 16 * 8);
        assert_eq!(*held, ColumnVector::BigInt(vec![1; 16], None));

        let faults = FaultInjector::new();
        faults.set_plan(FaultPlan {
            seed: 3,
            cache_corruption_prob: 1.0,
            ..FaultPlan::none()
        });
        let resident = (0..64).find(|&i| key(i).hash64() % 4 != 2).unwrap();
        let released = releases();
        let spare = d.cache().spares().bytes();
        d.cache()
            .get_or_load_with_fault(key(resident), Some(&faults), || {
                // The corrupt chunk's buffer is already a spare.
                assert_eq!(d.cache().spares().bytes(), spare + 16 * 8);
                Ok(ColumnVector::BigInt(vec![2; 16], None))
            })
            .unwrap();
        assert_eq!(releases(), (released.0 + 1, released.1 + 1));
        assert_eq!(
            d.cache()
                .stats()
                .corrupt_misses
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }
}
