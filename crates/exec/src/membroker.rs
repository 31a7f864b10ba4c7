//! The per-query memory broker (ROADMAP arc: "degrade, don't fail").
//!
//! One broker exists per query execution. Its budget is the query's
//! share of `hive.exec.memory.per.query.bytes`, scaled by the workload
//! manager's pool fraction at admission time (a query admitted into a
//! pool with `guaranteed_fraction = 0.25` gets a quarter of the
//! configured per-query bytes). Blocking operators — hash-join builds,
//! group-by tables, sorts — ask for a *grant* sized by their modeled
//! working set before materializing it:
//!
//! * [`MemoryBroker::try_reserve`] hands out a revocable [`MemGrant`]
//!   when the budget has room; the grant releases its bytes on drop
//!   (including panic unwind), so operator-scoped RAII keeps the
//!   accounting exact.
//! * A denied reservation marks the largest outstanding grant
//!   *revocation-requested* — the cooperative signal a long-lived
//!   holder polls via [`MemGrant::revoke_requested`] to spill early and
//!   shrink. Denied callers degrade to the spill path (grace join,
//!   partitioned aggregation, external sort) instead of failing.
//! * [`MemoryBroker::force_reserve`] records an over-budget grant for
//!   the degraded tail where spilling cannot subdivide further (a
//!   single-key build partition, the final merge) — the operator
//!   proceeds and the overshoot shows up in [`MemoryBroker::peak_bytes`]
//!   rather than as a query failure.
//!
//! Broker decisions are deterministic for a given plan because the
//! engine runs blocking operators sequentially and every grant is
//! operator-scoped: at each operator's entry the reserved total is
//! exactly the budget spent by its still-live ancestors, independent of
//! worker count — which keeps the spill/no-spill choice, and with it
//! seeded fault replay, byte-stable across 1/2/8 threads.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Floor for the working budget handed to one spill partition: even a
/// pathologically small `hive.exec.memory.per.query.bytes` must leave
/// enough room for recursion to terminate (see `spill::plan_partition`).
pub const MIN_CHUNK_BUDGET: u64 = 4096;

#[derive(Debug)]
struct GrantState {
    operator: String,
    bytes: u64,
    revoke: bool,
}

#[derive(Debug, Default)]
struct BrokerState {
    reserved: u64,
    grants: Vec<(u64, GrantState)>,
    next_id: u64,
}

/// Divides one query's memory budget among concurrently-live operators.
#[derive(Debug)]
pub struct MemoryBroker {
    /// `u64::MAX` = unlimited (spill never engages).
    budget: u64,
    state: Mutex<BrokerState>,
    peak: AtomicU64,
    denials: AtomicU64,
    forced: AtomicU64,
}

impl MemoryBroker {
    /// A broker with a hard byte budget. `0` means unlimited (the
    /// `hive.exec.memory.per.query.bytes` default).
    pub fn with_budget(budget_bytes: u64) -> MemoryBroker {
        MemoryBroker {
            budget: if budget_bytes == 0 {
                u64::MAX
            } else {
                budget_bytes
            },
            state: Mutex::new(BrokerState::default()),
            peak: AtomicU64::new(0),
            denials: AtomicU64::new(0),
            forced: AtomicU64::new(0),
        }
    }

    /// A broker that never denies (the in-memory oracle arm).
    pub fn unlimited() -> MemoryBroker {
        MemoryBroker::with_budget(0)
    }

    /// Whether this broker can ever deny a reservation.
    pub fn limited(&self) -> bool {
        self.budget != u64::MAX
    }

    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes still unreserved (saturating; `u64::MAX`-ish when unlimited).
    pub fn available(&self) -> u64 {
        self.budget.saturating_sub(self.state.lock().reserved)
    }

    /// Bytes currently reserved across live grants.
    pub fn reserved(&self) -> u64 {
        self.state.lock().reserved
    }

    /// The working budget one spill partition should fit in: half the
    /// query budget (so a partition plus its merge state coexist),
    /// floored so recursion terminates under absurd budgets.
    pub fn chunk_budget(&self) -> u64 {
        (self.budget / 2).max(MIN_CHUNK_BUDGET)
    }

    /// High-water mark of reserved bytes (forced grants included) —
    /// the query result's `peak_memory_bytes`.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reservations denied so far (each denial is one spill decision).
    pub fn denials(&self) -> u64 {
        self.denials.load(Ordering::Relaxed)
    }

    /// Over-budget grants issued so far (degraded-tail fallbacks).
    pub fn forced(&self) -> u64 {
        self.forced.load(Ordering::Relaxed)
    }

    /// Reserve `bytes` for `operator`, or deny. A denial asks the
    /// largest outstanding grant to shrink (revocation request) and
    /// returns `None` — the caller's cue to take the spill path.
    pub fn try_reserve(&self, operator: &str, bytes: u64) -> Option<MemGrant<'_>> {
        let mut s = self.state.lock();
        if s.reserved.saturating_add(bytes) > self.budget {
            self.denials.fetch_add(1, Ordering::Relaxed);
            if let Some((_, g)) = s.grants.iter_mut().max_by_key(|(_, g)| g.bytes) {
                g.revoke = true;
            }
            return None;
        }
        Some(self.grant_locked(&mut s, operator, bytes))
    }

    /// Reserve `bytes` even past the budget. Used where degradation has
    /// bottomed out; the overshoot is visible in [`Self::peak_bytes`].
    pub fn force_reserve(&self, operator: &str, bytes: u64) -> MemGrant<'_> {
        let mut s = self.state.lock();
        if s.reserved.saturating_add(bytes) > self.budget {
            self.forced.fetch_add(1, Ordering::Relaxed);
        }
        self.grant_locked(&mut s, operator, bytes)
    }

    fn grant_locked(&self, s: &mut BrokerState, operator: &str, bytes: u64) -> MemGrant<'_> {
        let id = s.next_id;
        s.next_id += 1;
        s.reserved = s.reserved.saturating_add(bytes);
        self.peak.fetch_max(s.reserved, Ordering::Relaxed);
        s.grants.push((
            id,
            GrantState {
                operator: operator.to_string(),
                bytes,
                revoke: false,
            },
        ));
        MemGrant { broker: self, id }
    }

    fn release(&self, id: u64) {
        let mut s = self.state.lock();
        if let Some(i) = s.grants.iter().position(|(gid, _)| *gid == id) {
            let (_, g) = s.grants.swap_remove(i);
            s.reserved = s.reserved.saturating_sub(g.bytes);
        }
    }
}

/// A revocable reservation of broker bytes; releases on drop (RAII, so
/// unwinding an operator mid-build returns its memory to the query).
#[derive(Debug)]
pub struct MemGrant<'a> {
    broker: &'a MemoryBroker,
    id: u64,
}

impl MemGrant<'_> {
    /// Bytes this grant currently holds.
    pub fn bytes(&self) -> u64 {
        let s = self.broker.state.lock();
        s.grants
            .iter()
            .find(|(gid, _)| *gid == self.id)
            .map_or(0, |(_, g)| g.bytes)
    }

    /// Grow the grant by `extra` bytes if the budget allows; `false`
    /// means the holder should spill instead of growing.
    pub fn grow(&self, extra: u64) -> bool {
        let mut s = self.broker.state.lock();
        if s.reserved.saturating_add(extra) > self.broker.budget {
            self.broker.denials.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        s.reserved += extra;
        self.broker.peak.fetch_max(s.reserved, Ordering::Relaxed);
        if let Some((_, g)) = s.grants.iter_mut().find(|(gid, _)| *gid == self.id) {
            g.bytes += extra;
        }
        true
    }

    /// Has another operator's denied reservation asked this grant to
    /// shrink? Holders answer by spilling and releasing.
    pub fn revoke_requested(&self) -> bool {
        let s = self.broker.state.lock();
        s.grants
            .iter()
            .find(|(gid, _)| *gid == self.id)
            .is_some_and(|(_, g)| g.revoke)
    }

    /// The operator name this grant was issued to.
    pub fn operator(&self) -> String {
        let s = self.broker.state.lock();
        s.grants
            .iter()
            .find(|(gid, _)| *gid == self.id)
            .map(|(_, g)| g.operator.clone())
            .unwrap_or_default()
    }
}

impl Drop for MemGrant<'_> {
    fn drop(&mut self) {
        self.broker.release(self.id);
    }
}

/// Scale the configured per-query budget by the admission pool
/// fraction (llap workload manager): the derived broker budget. A zero
/// configured budget stays zero (unlimited) regardless of fraction.
pub fn scaled_budget(per_query_bytes: usize, pool_fraction: f64) -> u64 {
    if per_query_bytes == 0 {
        return 0;
    }
    ((per_query_bytes as f64 * pool_fraction.clamp(0.0, 1.0)).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_release_on_drop() {
        let b = MemoryBroker::with_budget(1000);
        let g = b.try_reserve("join", 600).expect("fits");
        assert_eq!(b.reserved(), 600);
        assert_eq!(b.available(), 400);
        assert_eq!(g.bytes(), 600);
        drop(g);
        assert_eq!(b.reserved(), 0);
        assert_eq!(b.peak_bytes(), 600);
    }

    #[test]
    fn denial_marks_largest_grant_for_revocation() {
        let b = MemoryBroker::with_budget(1000);
        let small = b.try_reserve("sort", 200).unwrap();
        let big = b.try_reserve("join", 700).unwrap();
        assert!(!big.revoke_requested());
        assert!(b.try_reserve("agg", 500).is_none(), "over budget");
        assert_eq!(b.denials(), 1);
        assert!(big.revoke_requested(), "largest holder asked to shrink");
        assert!(!small.revoke_requested());
        // The revokee spills and releases; the retry now fits.
        drop(big);
        assert!(b.try_reserve("agg", 500).is_some());
    }

    #[test]
    fn force_reserve_tracks_overshoot_in_peak() {
        let b = MemoryBroker::with_budget(100);
        let g = b.force_reserve("join-partition", 250);
        assert_eq!(b.forced(), 1);
        assert_eq!(b.peak_bytes(), 250, "peak sees past the budget");
        assert_eq!(g.operator(), "join-partition");
        drop(g);
        assert_eq!(b.reserved(), 0);
    }

    #[test]
    fn unlimited_never_denies() {
        let b = MemoryBroker::unlimited();
        assert!(!b.limited());
        let _g = b.try_reserve("join", u64::MAX / 2).unwrap();
        assert!(b.try_reserve("agg", u64::MAX / 4).is_some());
        assert_eq!(b.denials(), 0);
    }

    #[test]
    fn grow_respects_budget() {
        let b = MemoryBroker::with_budget(1000);
        let g = b.try_reserve("agg", 400).unwrap();
        assert!(g.grow(500));
        assert_eq!(g.bytes(), 900);
        assert!(!g.grow(200), "would exceed the budget");
        assert_eq!(g.bytes(), 900);
        drop(g);
        assert_eq!(b.reserved(), 0);
    }

    #[test]
    fn scaled_budget_applies_pool_fraction() {
        assert_eq!(scaled_budget(0, 0.5), 0, "unlimited stays unlimited");
        assert_eq!(scaled_budget(1_000_000, 1.0), 1_000_000);
        assert_eq!(scaled_budget(1_000_000, 0.25), 250_000);
        assert_eq!(scaled_budget(100, 0.0), 1, "never collapses to zero");
    }

    #[test]
    fn release_is_unwind_safe() {
        let b = MemoryBroker::with_budget(1000);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = b.try_reserve("join", 800).unwrap();
            panic!("operator blew up mid-build");
        }));
        assert!(r.is_err());
        assert_eq!(b.reserved(), 0, "grant released on unwind");
    }
}
