//! The workload manager (paper §5.2): resource plans, pools, mappings
//! and triggers controlling access to LLAP resources in multi-tenant
//! clusters.
//!
//! A resource plan consists of "(i) one or more pool of resources, with
//! a maximum amount of resources and number of concurrent queries per
//! pool, (ii) mappings, which route incoming queries to pools …, and
//! (iii) triggers which initiate an action, such as killing queries in a
//! pool or moving queries from one pool to another". Idle capacity is
//! borrowable: "a query may be assigned idle resources from a pool that
//! it has not been assigned to".
//!
//! Admission accounting is **slot-exact**: [`WorkloadManager::admit`]
//! returns an RAII [`AdmissionSlot`] identified by a unique query id,
//! and the manager tracks the pool each live query currently occupies.
//! Releasing is dropping the slot — it removes exactly that query, on
//! success, error, and unwind paths alike, so plan activation mid-flight
//! never wipes live counts and a release can never underflow another
//! pool's accounting. Trigger *evaluation* is pure
//! ([`WorkloadManager::next_trigger`]); applying a move goes through
//! [`AdmissionSlot::move_to`], which validates the target pool exists
//! and has capacity (a saturated or unknown target means the query
//! stays where it is).

use hive_common::{HiveError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A pool of LLAP resources.
#[derive(Debug, Clone, PartialEq)]
pub struct Pool {
    pub name: String,
    /// Fraction of cluster resources guaranteed to the pool.
    pub alloc_fraction: f64,
    /// Maximum concurrent queries.
    pub query_parallelism: usize,
}

/// Routes queries to pools by user, group, or application name.
#[derive(Debug, Clone, PartialEq)]
pub enum Mapping {
    User { name: String, pool: String },
    Application { name: String, pool: String },
    Group { name: String, pool: String },
}

impl Mapping {
    fn pool(&self) -> &str {
        match self {
            Mapping::User { pool, .. }
            | Mapping::Application { pool, .. }
            | Mapping::Group { pool, .. } => pool,
        }
    }
}

/// A runtime action taken by a trigger.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerAction {
    Kill,
    MoveToPool(String),
}

/// A trigger: when a query in `pool` runs past `threshold`, apply
/// `action`. The only metric modeled is total runtime in milliseconds
/// (the paper's `total_runtime` example).
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    pub name: String,
    pub pool: String,
    pub total_runtime_ms_threshold: u64,
    pub action: TriggerAction,
}

/// A self-contained resource-sharing configuration. Only one plan can
/// be active at a time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResourcePlan {
    pub name: String,
    pub pools: Vec<Pool>,
    pub mappings: Vec<Mapping>,
    pub triggers: Vec<Trigger>,
    pub default_pool: Option<String>,
}

impl ResourcePlan {
    /// The paper's §5.2 example: `daytime` with `bi` (80%, 5 queries)
    /// and `etl` (20%, 20 queries) pools, a downgrade trigger at 3 s,
    /// and an application mapping.
    pub fn paper_example() -> ResourcePlan {
        ResourcePlan {
            name: "daytime".into(),
            pools: vec![
                Pool {
                    name: "bi".into(),
                    alloc_fraction: 0.8,
                    query_parallelism: 5,
                },
                Pool {
                    name: "etl".into(),
                    alloc_fraction: 0.2,
                    query_parallelism: 20,
                },
            ],
            mappings: vec![Mapping::Application {
                name: "visualization_app".into(),
                pool: "bi".into(),
            }],
            triggers: vec![Trigger {
                name: "downgrade".into(),
                pool: "bi".into(),
                total_runtime_ms_threshold: 3000,
                action: TriggerAction::MoveToPool("etl".into()),
            }],
            default_pool: Some("etl".into()),
        }
    }

    fn pool(&self, name: &str) -> Option<&Pool> {
        self.pools.iter().find(|p| p.name == name)
    }

    /// Reject inconsistent plans before they can corrupt admission:
    /// duplicate pool names, mappings/default/triggers naming unknown
    /// pools, and — the phantom-pool bug — `MoveToPool` targets that do
    /// not exist in the plan.
    pub fn validate(&self) -> Result<()> {
        let err = |m: String| Err(HiveError::Workload(m));
        for (i, p) in self.pools.iter().enumerate() {
            if self.pools[..i].iter().any(|q| q.name == p.name) {
                return err(format!("plan {}: duplicate pool {}", self.name, p.name));
            }
            if p.query_parallelism == 0 {
                return err(format!(
                    "plan {}: pool {} has query_parallelism 0",
                    self.name, p.name
                ));
            }
        }
        if let Some(d) = &self.default_pool {
            if self.pool(d).is_none() {
                return err(format!("plan {}: unknown default pool {d}", self.name));
            }
        }
        for m in &self.mappings {
            if self.pool(m.pool()).is_none() {
                return err(format!(
                    "plan {}: mapping routes to unknown pool {}",
                    self.name,
                    m.pool()
                ));
            }
        }
        for t in &self.triggers {
            if self.pool(&t.pool).is_none() {
                return err(format!(
                    "plan {}: trigger {} watches unknown pool {}",
                    self.name, t.name, t.pool
                ));
            }
            if let TriggerAction::MoveToPool(target) = &t.action {
                if self.pool(target).is_none() {
                    return err(format!(
                        "plan {}: trigger {} moves to unknown pool {target}",
                        self.name, t.name
                    ));
                }
                if target == &t.pool {
                    return err(format!(
                        "plan {}: trigger {} moves {} to itself",
                        self.name, t.name, t.pool
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Outcome of a non-blocking admission attempt.
#[derive(Debug)]
pub enum AdmitOutcome {
    /// Admitted — the slot is live until dropped.
    Admitted(AdmissionSlot),
    /// The routed pool and every borrowable pool are at capacity; the
    /// caller may queue and retry when capacity frees (the serving
    /// layer's bounded admission queue does exactly that).
    Saturated {
        /// The pool the query was routed to.
        pool: String,
    },
}

/// Outcome of [`AdmissionSlot::move_to`].
#[derive(Debug, Clone, PartialEq)]
pub enum MoveOutcome {
    /// Accounting transferred to the target pool.
    Moved,
    /// The query stays in its current pool (unknown or saturated
    /// target, or a no-op self-move).
    Stayed { reason: String },
}

/// Result of walking a finished query's trigger timeline
/// ([`AdmissionSlot::resolve_triggers`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerVerdict {
    /// The query ran to completion; any pool moves that fired along the
    /// way are listed as `(elapsed_ms, target_pool)`.
    Completed { moves: Vec<(u64, String)> },
    /// A kill trigger fired at `at_ms` — the query ends there, not at
    /// its natural runtime.
    Killed { at_ms: u64, trigger: String },
}

#[derive(Debug, Default)]
struct WmState {
    plan: Option<ResourcePlan>,
    next_id: u64,
    /// Live admissions: query id → pool the query currently occupies.
    running: HashMap<u64, String>,
}

impl WmState {
    fn running_in(&self, pool: &str) -> usize {
        self.running.values().filter(|p| p.as_str() == pool).count()
    }
}

/// The workload manager: admission control over the active plan.
/// Cheap to clone; clones share state (admission slots hold one).
#[derive(Debug, Clone, Default)]
pub struct WorkloadManager {
    state: Arc<Mutex<WmState>>,
}

impl WorkloadManager {
    /// A manager with no active plan (everything admitted).
    pub fn new() -> Self {
        WorkloadManager::default()
    }

    /// Validate and activate a resource plan (replacing any previous
    /// one). Live admissions are untouched: queries keep the slots they
    /// hold and release them exactly, even across the swap.
    pub fn activate(&self, plan: ResourcePlan) -> Result<()> {
        plan.validate()?;
        self.state.lock().plan = Some(plan);
        Ok(())
    }

    /// A snapshot of the active plan.
    pub fn active_plan(&self) -> Option<ResourcePlan> {
        self.state.lock().plan.clone()
    }

    /// Route a query to its pool. Mapping precedence is by type — user,
    /// then group (first of the session's groups with a mapping, in
    /// plan order), then application — falling back to the default
    /// pool.
    pub fn route(
        &self,
        user: &str,
        application: Option<&str>,
        groups: &[String],
    ) -> Option<String> {
        let g = self.state.lock();
        let plan = g.plan.as_ref()?;
        for m in &plan.mappings {
            if let Mapping::User { name, pool } = m {
                if name == user {
                    return Some(pool.clone());
                }
            }
        }
        for m in &plan.mappings {
            if let Mapping::Group { name, pool } = m {
                if groups.iter().any(|s| s == name) {
                    return Some(pool.clone());
                }
            }
        }
        for m in &plan.mappings {
            if let Mapping::Application { name, pool } = m {
                if Some(name.as_str()) == application {
                    return Some(pool.clone());
                }
            }
        }
        plan.default_pool.clone()
    }

    /// Try to admit a query: the routed pool first, then borrowable
    /// idle capacity from other pools in plan order. Saturation is a
    /// non-error outcome so callers can queue.
    pub fn try_admit(
        &self,
        user: &str,
        application: Option<&str>,
        groups: &[String],
    ) -> Result<AdmitOutcome> {
        let pool_name = {
            let g = self.state.lock();
            match g.plan.as_ref() {
                None => {
                    drop(g);
                    return Ok(AdmitOutcome::Admitted(
                        self.insert_slot("default", 1.0, false),
                    ));
                }
                Some(_) => {
                    drop(g);
                    self.route(user, application, groups).ok_or_else(|| {
                        HiveError::Workload("no pool mapping and no default pool".into())
                    })?
                }
            }
        };
        let g = self.state.lock();
        let plan = g.plan.as_ref().expect("plan checked above");
        let pool = plan
            .pool(&pool_name)
            .ok_or_else(|| HiveError::Workload(format!("unknown pool {pool_name}")))?;
        if g.running_in(&pool_name) < pool.query_parallelism {
            let fraction = pool.alloc_fraction;
            drop(g);
            return Ok(AdmitOutcome::Admitted(
                self.insert_slot(&pool_name, fraction, false),
            ));
        }
        // Borrow idle capacity from another pool, in plan order.
        let borrow = plan
            .pools
            .iter()
            .find(|p| p.name != pool_name && g.running_in(&p.name) < p.query_parallelism)
            .map(|p| (p.name.clone(), p.alloc_fraction));
        drop(g);
        match borrow {
            Some((name, fraction)) => Ok(AdmitOutcome::Admitted(
                self.insert_slot(&name, fraction, true),
            )),
            None => Ok(AdmitOutcome::Saturated { pool: pool_name }),
        }
    }

    /// Admit a query, failing with [`HiveError::Workload`] when the
    /// target pool (and every pool with idle capacity) is saturated —
    /// the hard-rejection path used by standalone sessions that have no
    /// queue to wait in.
    pub fn admit(
        &self,
        user: &str,
        application: Option<&str>,
        groups: &[String],
    ) -> Result<AdmissionSlot> {
        match self.try_admit(user, application, groups)? {
            AdmitOutcome::Admitted(slot) => Ok(slot),
            AdmitOutcome::Saturated { pool } => {
                let parallelism = self
                    .state
                    .lock()
                    .plan
                    .as_ref()
                    .and_then(|p| p.pool(&pool))
                    .map(|p| p.query_parallelism)
                    .unwrap_or(0);
                Err(HiveError::Workload(format!(
                    "pool {pool} is at parallelism {parallelism} and no idle capacity remains"
                )))
            }
        }
    }

    /// Admit directly into a named pool when it has capacity (the
    /// serving layer's queue wake-up path: a waiter admitted into the
    /// pool it queued for, never a borrow).
    pub fn admit_into(&self, pool: &str) -> Option<AdmissionSlot> {
        let fraction = {
            let g = self.state.lock();
            let plan = g.plan.as_ref()?;
            let p = plan.pool(pool)?;
            if g.running_in(pool) >= p.query_parallelism {
                return None;
            }
            p.alloc_fraction
        };
        Some(self.insert_slot(pool, fraction, false))
    }

    fn insert_slot(&self, pool: &str, fraction: f64, borrowed: bool) -> AdmissionSlot {
        let id = {
            let mut g = self.state.lock();
            let id = g.next_id;
            g.next_id += 1;
            g.running.insert(id, pool.to_string());
            id
        };
        AdmissionSlot {
            wm: self.clone(),
            id,
            home_pool: pool.to_string(),
            guaranteed_fraction: fraction,
            borrowed,
        }
    }

    /// The lowest-threshold trigger on `pool` with
    /// `total_runtime_ms_threshold ≥ min_threshold_ms` (ties resolve in
    /// plan order). Pure — evaluation never touches accounting; apply
    /// moves through [`AdmissionSlot::move_to`]. Walk a timeline by
    /// passing `fired.threshold + 1` on each subsequent call.
    pub fn next_trigger(&self, pool: &str, min_threshold_ms: u64) -> Option<Trigger> {
        let g = self.state.lock();
        let plan = g.plan.as_ref()?;
        plan.triggers
            .iter()
            .filter(|t| t.pool == pool && t.total_runtime_ms_threshold >= min_threshold_ms)
            .min_by_key(|t| t.total_runtime_ms_threshold)
            .cloned()
    }

    /// Running query count for a pool (diagnostics).
    pub fn running_in(&self, pool: &str) -> usize {
        self.state.lock().running_in(pool)
    }

    /// Total live admissions across all pools.
    pub fn total_running(&self) -> usize {
        self.state.lock().running.len()
    }
}

/// A granted admission: RAII ownership of one pool slot, mirroring
/// [`crate::ExecutorLease`]. Dropping the slot releases exactly this
/// query's accounting — double releases and underflows are
/// unrepresentable.
#[derive(Debug)]
pub struct AdmissionSlot {
    wm: WorkloadManager,
    id: u64,
    home_pool: String,
    guaranteed_fraction: f64,
    borrowed: bool,
}

impl AdmissionSlot {
    /// The pool this query currently occupies (moves update it).
    pub fn pool(&self) -> String {
        self.wm
            .state
            .lock()
            .running
            .get(&self.id)
            .cloned()
            .unwrap_or_else(|| self.home_pool.clone())
    }

    /// Guaranteed fraction of cluster resources for this query, fixed
    /// at admission (memory budgets are sized once, at admit time).
    pub fn guaranteed_fraction(&self) -> f64 {
        self.guaranteed_fraction
    }

    /// True when the query borrowed idle capacity from a pool it was
    /// not routed to.
    pub fn borrowed(&self) -> bool {
        self.borrowed
    }

    /// Transfer this query's accounting to `target`, validating that
    /// the target pool exists in the active plan and has capacity. On
    /// an unknown or saturated target the query **stays** in its
    /// current pool — a typo'd trigger target can no longer create a
    /// phantom pool, and a saturated target can no longer be pushed
    /// past its `query_parallelism`.
    pub fn move_to(&self, target: &str) -> MoveOutcome {
        let mut g = self.wm.state.lock();
        let current = match g.running.get(&self.id) {
            Some(p) => p.clone(),
            None => {
                return MoveOutcome::Stayed {
                    reason: "slot already released".into(),
                }
            }
        };
        if current == target {
            return MoveOutcome::Stayed {
                reason: format!("already in pool {target}"),
            };
        }
        let Some(plan) = g.plan.as_ref() else {
            return MoveOutcome::Stayed {
                reason: "no active plan".into(),
            };
        };
        let Some(pool) = plan.pool(target) else {
            return MoveOutcome::Stayed {
                reason: format!("unknown target pool {target}"),
            };
        };
        let parallelism = pool.query_parallelism;
        if g.running_in(target) >= parallelism {
            return MoveOutcome::Stayed {
                reason: format!("target pool {target} is at parallelism {parallelism}"),
            };
        }
        g.running.insert(self.id, target.to_string());
        MoveOutcome::Moved
    }

    /// Walk the trigger timeline of a query that ran (solo) for
    /// `runtime_ms`: starting in the admitted pool at elapsed 0, fire
    /// triggers in threshold order. A kill ends the query at its
    /// threshold; a move transfers the slot (capacity-validated — a
    /// failed move leaves the query in place) and evaluation continues
    /// against the pool it now occupies. The standalone driver path
    /// uses this; the concurrent serving layer evaluates the same
    /// triggers as discrete timeline events instead.
    pub fn resolve_triggers(&self, runtime_ms: u64) -> TriggerVerdict {
        let mut pool = self.pool();
        let mut min_threshold = 0u64;
        let mut moves = Vec::new();
        while let Some(t) = self.wm.next_trigger(&pool, min_threshold) {
            let at = t.total_runtime_ms_threshold;
            if at >= runtime_ms {
                break; // the query finished before this trigger fired
            }
            min_threshold = at + 1;
            match t.action {
                TriggerAction::Kill => {
                    return TriggerVerdict::Killed {
                        at_ms: at,
                        trigger: t.name,
                    }
                }
                TriggerAction::MoveToPool(target) => {
                    if let MoveOutcome::Moved = self.move_to(&target) {
                        moves.push((at, target.clone()));
                        pool = target;
                    }
                }
            }
        }
        TriggerVerdict::Completed { moves }
    }

    /// Release the slot explicitly (dropping does the same).
    pub fn release(self) {}
}

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.wm.state.lock().running.remove(&self.id);
    }
}

impl fmt::Display for ResourcePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RESOURCE PLAN {}", self.name)?;
        for p in &self.pools {
            writeln!(
                f,
                "  POOL {} alloc_fraction={} query_parallelism={}",
                p.name, p.alloc_fraction, p.query_parallelism
            )?;
        }
        for m in &self.mappings {
            let (kind, name) = match m {
                Mapping::User { name, .. } => ("USER", name),
                Mapping::Group { name, .. } => ("GROUP", name),
                Mapping::Application { name, .. } => ("APPLICATION", name),
            };
            writeln!(f, "  {kind} MAPPING {name} TO {}", m.pool())?;
        }
        for t in &self.triggers {
            writeln!(
                f,
                "  TRIGGER {} IN {} WHEN total_runtime > {}ms THEN {:?}",
                t.name, t.pool, t.total_runtime_ms_threshold, t.action
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wm() -> WorkloadManager {
        let w = WorkloadManager::new();
        w.activate(ResourcePlan::paper_example()).unwrap();
        w
    }

    #[test]
    fn routing() {
        let w = wm();
        assert_eq!(
            w.route("alice", Some("visualization_app"), &[]),
            Some("bi".into())
        );
        assert_eq!(w.route("bob", None, &[]), Some("etl".into()));
    }

    #[test]
    fn group_mappings_route_between_user_and_application() {
        let w = WorkloadManager::new();
        let mut plan = ResourcePlan::paper_example();
        plan.mappings = vec![
            Mapping::Application {
                name: "visualization_app".into(),
                pool: "etl".into(),
            },
            Mapping::Group {
                name: "analysts".into(),
                pool: "bi".into(),
            },
            Mapping::User {
                name: "carol".into(),
                pool: "etl".into(),
            },
        ];
        w.activate(plan).unwrap();
        // Group beats application…
        assert_eq!(
            w.route(
                "alice",
                Some("visualization_app"),
                &["analysts".to_string()]
            ),
            Some("bi".into())
        );
        // …user beats group…
        assert_eq!(
            w.route("carol", None, &["analysts".to_string()]),
            Some("etl".into())
        );
        // …and an unmapped group falls through to application/default.
        assert_eq!(
            w.route("dave", Some("visualization_app"), &["interns".to_string()]),
            Some("etl".into())
        );
        assert_eq!(w.route("dave", None, &[]), Some("etl".into()));
    }

    #[test]
    fn admission_limits_and_borrowing() {
        let w = wm();
        // Fill the bi pool (parallelism 5).
        let mut slots = Vec::new();
        for _ in 0..5 {
            let a = w.admit("u", Some("visualization_app"), &[]).unwrap();
            assert_eq!(a.pool(), "bi");
            assert!(!a.borrowed());
            slots.push(a);
        }
        // Sixth borrows from etl.
        let a = w.admit("u", Some("visualization_app"), &[]).unwrap();
        assert_eq!(a.pool(), "etl");
        assert!(a.borrowed());
        assert_eq!(w.running_in("bi"), 5);
        assert_eq!(w.running_in("etl"), 1);
        // Saturate etl too → rejection.
        for _ in 0..19 {
            slots.push(w.admit("b", None, &[]).unwrap());
        }
        assert!(w.admit("b", None, &[]).is_err());
        assert!(matches!(
            w.try_admit("b", None, &[]).unwrap(),
            AdmitOutcome::Saturated { pool } if pool == "etl"
        ));
        // Releasing (dropping) frees a slot.
        drop(slots.pop());
        let refill = w.admit("b", None, &[]).unwrap();
        assert_eq!(refill.pool(), "etl");
        slots.push(refill);
        // The borrowed slot releases back to the pool it occupies.
        assert_eq!(w.running_in("etl"), 20);
        drop(a);
        assert_eq!(w.running_in("etl"), 19);
    }

    #[test]
    fn activate_mid_flight_keeps_live_slots_exact() {
        let w = wm();
        let a = w.admit("u", Some("visualization_app"), &[]).unwrap();
        assert_eq!(w.running_in("bi"), 1);
        // Re-activating (even the same plan) must not wipe live counts…
        w.activate(ResourcePlan::paper_example()).unwrap();
        assert_eq!(w.running_in("bi"), 1, "activation wiped a live slot");
        let b = w.admit("u", Some("visualization_app"), &[]).unwrap();
        assert_eq!(w.running_in("bi"), 2);
        // …and releases stay exact across the swap: each drop removes
        // its own query only, so no underflow can corrupt later counts.
        drop(a);
        assert_eq!(w.running_in("bi"), 1);
        drop(b);
        assert_eq!(w.running_in("bi"), 0);
        let c = w.admit("u", Some("visualization_app"), &[]).unwrap();
        assert_eq!(w.running_in("bi"), 1);
        drop(c);
    }

    #[test]
    fn activate_rejects_invalid_plans() {
        let w = WorkloadManager::new();
        let mut plan = ResourcePlan::paper_example();
        plan.triggers[0].action = TriggerAction::MoveToPool("etk".into()); // typo
        assert!(w.activate(plan).is_err(), "unknown move target");
        let mut plan = ResourcePlan::paper_example();
        plan.default_pool = Some("nope".into());
        assert!(w.activate(plan).is_err(), "unknown default pool");
        let mut plan = ResourcePlan::paper_example();
        plan.mappings.push(Mapping::Group {
            name: "g".into(),
            pool: "nope".into(),
        });
        assert!(w.activate(plan).is_err(), "unknown mapping pool");
        let mut plan = ResourcePlan::paper_example();
        plan.pools[1].name = "bi".into();
        assert!(w.activate(plan).is_err(), "duplicate pool");
    }

    #[test]
    fn move_validates_target_capacity() {
        let w = wm();
        // Saturate etl (parallelism 20): 20 direct admissions.
        let held: Vec<_> = (0..20).map(|_| w.admit("b", None, &[]).unwrap()).collect();
        let a = w.admit("u", Some("visualization_app"), &[]).unwrap();
        assert_eq!(a.pool(), "bi");
        // Target saturated → the query stays, and etl is not pushed
        // past its parallelism.
        assert!(matches!(a.move_to("etl"), MoveOutcome::Stayed { .. }));
        assert_eq!(a.pool(), "bi");
        assert_eq!(w.running_in("etl"), 20);
        // Unknown target → stays (no phantom pool is created).
        assert!(matches!(a.move_to("etk"), MoveOutcome::Stayed { .. }));
        assert_eq!(w.running_in("etk"), 0);
        // Capacity frees → the move lands.
        drop(held);
        assert_eq!(a.move_to("etl"), MoveOutcome::Moved);
        assert_eq!(a.pool(), "etl");
        assert_eq!(w.running_in("bi"), 0);
        assert_eq!(w.running_in("etl"), 1);
    }

    #[test]
    fn trigger_timeline_moves_and_kills_at_threshold() {
        let w = wm();
        let a = w.admit("u", Some("visualization_app"), &[]).unwrap();
        // Finished before the 3000 ms threshold: nothing fires.
        assert_eq!(
            a.resolve_triggers(1000),
            TriggerVerdict::Completed { moves: vec![] }
        );
        assert_eq!(a.pool(), "bi");
        // Past it: the downgrade move fires at exactly 3000.
        assert_eq!(
            a.resolve_triggers(3500),
            TriggerVerdict::Completed {
                moves: vec![(3000, "etl".into())]
            }
        );
        assert_eq!(a.pool(), "etl");
        assert_eq!(w.running_in("bi"), 0);
        assert_eq!(w.running_in("etl"), 1);
        drop(a);

        // A kill trigger ends the query at its threshold.
        let mut plan = ResourcePlan::paper_example();
        plan.triggers.push(Trigger {
            name: "reaper".into(),
            pool: "etl".into(),
            total_runtime_ms_threshold: 5000,
            action: TriggerAction::Kill,
        });
        w.activate(plan).unwrap();
        let b = w.admit("u", Some("visualization_app"), &[]).unwrap();
        assert_eq!(
            b.resolve_triggers(9000),
            TriggerVerdict::Killed {
                at_ms: 5000,
                trigger: "reaper".into()
            },
            "move at 3000 into etl, then etl's kill at 5000"
        );
    }

    #[test]
    fn no_plan_admits_everything() {
        let w = WorkloadManager::new();
        let slots: Vec<_> = (0..100)
            .map(|_| w.admit("anyone", None, &[]).unwrap())
            .collect();
        assert_eq!(w.total_running(), 100);
        drop(slots);
        assert_eq!(w.total_running(), 0);
    }

    #[test]
    fn slot_releases_on_panic() {
        let w = wm();
        let w2 = w.clone();
        let result = std::panic::catch_unwind(move || {
            let _slot = w2.admit("u", Some("visualization_app"), &[]).unwrap();
            panic!("query died");
        });
        assert!(result.is_err());
        assert_eq!(
            w.running_in("bi"),
            0,
            "panicking query must not leak its slot"
        );
    }
}
