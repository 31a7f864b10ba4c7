//! The [`HiveServer`]: one process embedding the whole warehouse.

use crate::results_cache::QueryResultsCache;
use crate::session::Session;
use hive_common::HiveConf;
use hive_dfs::DistFs;
use hive_exec::SimCostModel;
use hive_federation::{
    DruidStorageHandler, DruidStore, FederationScanner, HandlerRegistry, JdbcBackend,
    JdbcStorageHandler,
};
use hive_llap::{LlapDaemons, WorkloadManager};
use hive_metastore::Metastore;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// The embedded warehouse server (HiveServer2 + HMS + LLAP + federated
/// systems, wired together). Cheap to clone; clones share state.
#[derive(Clone)]
pub struct HiveServer {
    pub(crate) inner: Arc<ServerInner>,
}

pub(crate) struct ServerInner {
    pub fs: DistFs,
    pub ms: Metastore,
    pub conf: RwLock<HiveConf>,
    pub llap: LlapDaemons,
    pub druid: DruidStore,
    pub jdbc: JdbcBackend,
    pub registry: HandlerRegistry,
    pub results_cache: Arc<QueryResultsCache>,
    /// Internally synchronized and cheap to clone — admission slots
    /// hold a clone so releases stay exact across plan swaps.
    pub workload: WorkloadManager,
    pub sim_model: SimCostModel,
    /// Monotonic counter giving each budgeted query its own spill
    /// directory under `/tmp/hive/spill/`.
    pub spill_seq: std::sync::atomic::AtomicU64,
    /// Each materialized view's definition plan, by qualified name.
    pub mv_plans: parking_lot::Mutex<HashMap<String, crate::mv::DefinitionPlan>>,
}

impl HiveServer {
    /// Boot a server with the given configuration.
    pub fn new(conf: HiveConf) -> Self {
        let fs = DistFs::new();
        // One fault injector for the whole stack (DFS reads, LLAP
        // daemons, executor fragments), programmed from the conf's plan.
        fs.fault().set_plan(conf.fault.clone());
        let ms = Metastore::new();
        let llap = LlapDaemons::new(
            conf.cluster_nodes,
            conf.slots_per_node,
            conf.llap_cache_bytes,
            conf.lrfu_lambda,
        );
        llap.attach_fault(fs.fault().clone());
        let druid = DruidStore::new();
        let jdbc = JdbcBackend::new();
        let mut registry = HandlerRegistry::new();
        registry.register(Arc::new(DruidStorageHandler::new(druid.clone())));
        registry.register(Arc::new(JdbcStorageHandler::new(jdbc.clone())));
        let results_cache = QueryResultsCache::new(conf.results_cache_entries);
        HiveServer {
            inner: Arc::new(ServerInner {
                fs,
                ms,
                conf: RwLock::new(conf),
                llap,
                druid,
                jdbc,
                registry,
                results_cache,
                workload: WorkloadManager::new(),
                sim_model: SimCostModel::default(),
                spill_seq: std::sync::atomic::AtomicU64::new(0),
                mv_plans: Default::default(),
            }),
        }
    }

    /// Open a session (the JDBC/ODBC connection analogue).
    pub fn session(&self) -> Session {
        Session::new(self.clone(), "default", "anonymous", None)
    }

    /// Open a session for a specific user/application (workload-manager
    /// mappings route on these).
    pub fn session_for(&self, user: &str, application: Option<&str>) -> Session {
        Session::new(self.clone(), "default", user, application)
    }

    /// Open a session carrying group membership — the workload
    /// manager's `Mapping::Group` entries route on these, between user
    /// and application mappings in precedence.
    pub fn session_with_groups(
        &self,
        user: &str,
        application: Option<&str>,
        groups: &[String],
    ) -> Session {
        Session::with_groups(self.clone(), "default", user, application, groups)
    }

    /// The simulated file system.
    pub fn fs(&self) -> &DistFs {
        &self.inner.fs
    }

    /// The metastore.
    pub fn metastore(&self) -> &Metastore {
        &self.inner.ms
    }

    /// The LLAP daemon fleet.
    pub fn llap(&self) -> &LlapDaemons {
        &self.inner.llap
    }

    /// The Druid service (benchmark/bootstrap access).
    pub fn druid(&self) -> &DruidStore {
        &self.inner.druid
    }

    /// The JDBC backend (benchmark/bootstrap access).
    pub fn jdbc(&self) -> &JdbcBackend {
        &self.inner.jdbc
    }

    /// The results cache.
    pub fn results_cache(&self) -> &QueryResultsCache {
        &self.inner.results_cache
    }

    /// The next spill-directory sequence number.
    pub(crate) fn next_spill_seq(&self) -> u64 {
        self.inner
            .spill_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// A snapshot of the current configuration.
    pub fn conf(&self) -> HiveConf {
        self.inner.conf.read().clone()
    }

    /// Update the configuration (takes effect for subsequent queries).
    pub fn set_conf(&self, f: impl FnOnce(&mut HiveConf)) {
        let fault_plan = {
            let mut conf = self.inner.conf.write();
            f(&mut conf);
            conf.fault.clone()
        };
        // Keep the stack-wide injector in sync with the conf's plan
        // (a changed plan resets attempt counters for a fresh replay).
        if self.inner.fs.fault().plan() != fault_plan {
            self.inner.fs.fault().set_plan(fault_plan);
        }
    }

    /// Activate a workload-management resource plan (§5.2). The plan is
    /// validated first (unknown pools in mappings, triggers, move
    /// targets, or the default pool are rejected); queries already
    /// admitted keep their slots.
    pub fn activate_resource_plan(&self, plan: hive_llap::ResourcePlan) -> hive_common::Result<()> {
        self.inner.workload.activate(plan)
    }

    /// Workload-manager access.
    pub fn workload<T>(&self, f: impl FnOnce(&WorkloadManager) -> T) -> T {
        f(&self.inner.workload)
    }

    /// The federation scanner used during execution.
    pub(crate) fn federation_scanner(&self) -> FederationScanner {
        FederationScanner::new(self.inner.registry.clone())
    }
}
