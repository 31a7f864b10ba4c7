//! Sessions and query results.

use crate::server::HiveServer;
use hive_common::{Result, Row, Schema, VectorBatch};
use parking_lot::RwLock;

/// The result of one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub(crate) batch: VectorBatch,
    /// Simulated cluster response time in milliseconds (see
    /// `hive_exec::simtime`). Zero for pure-metadata statements.
    pub sim_ms: f64,
    /// Served from the query results cache (§4.3).
    pub from_cache: bool,
    /// A materialized-view rewrite answered (part of) the query (§4.4).
    pub used_mv: bool,
    /// The query failed retryably and was re-optimized + re-executed
    /// (§4.2).
    pub reexecuted: bool,
    /// Rows written by DML.
    pub affected_rows: u64,
    /// Bytes read from the DFS during execution.
    pub bytes_disk: u64,
    /// Bytes served by the LLAP cache during execution.
    pub bytes_cache: u64,
    /// Fragment/task attempts retried after injected faults (see
    /// `hive_common::fault`).
    pub fragment_retries: u64,
    /// Fragments re-dispatched onto a surviving LLAP daemon after their
    /// node died mid-query (§5.1 failover).
    pub failovers: u64,
    /// Bytes written to spill files by blocking operators that exceeded
    /// their memory grant (see `hive_exec::membroker`).
    pub bytes_spilled: u64,
    /// Peak memory tracked by the per-query broker (0 when the query ran
    /// without a budget).
    pub peak_memory_bytes: u64,
    /// The widest stage of the plan in scheduler tasks, capped at the
    /// cluster's executor slots — the query's slot demand while running
    /// (1 for cache hits and metadata statements). The serving layer's
    /// fair-share model allocates cluster capacity against this.
    pub parallel_width: u64,
    /// Operator stages that executed fully compiled under the physical
    /// IR: filter/project pipelines, scan predicates, aggregate
    /// accumulator banks, join residual conjunctions. Zero in row mode
    /// (`vectorized = false`).
    pub pir_compiled_stages: u64,
    /// Rows (or join candidate pairs) that the vectorized engine ran
    /// through the row interpreter — non-compilable expression shapes,
    /// grace joins.
    pub pir_fallback_rows: u64,
    /// Human-readable notice (DDL acknowledgements, EXPLAIN text, …).
    pub message: Option<String>,
}

impl QueryResult {
    pub(crate) fn empty() -> QueryResult {
        QueryResult {
            batch: VectorBatch::empty(&Schema::empty()).expect("empty batch"),
            sim_ms: 0.0,
            from_cache: false,
            used_mv: false,
            reexecuted: false,
            affected_rows: 0,
            bytes_disk: 0,
            bytes_cache: 0,
            fragment_retries: 0,
            failovers: 0,
            bytes_spilled: 0,
            peak_memory_bytes: 0,
            parallel_width: 1,
            pir_compiled_stages: 0,
            pir_fallback_rows: 0,
            message: None,
        }
    }

    pub(crate) fn message(msg: impl Into<String>) -> QueryResult {
        QueryResult {
            message: Some(msg.into()),
            ..QueryResult::empty()
        }
    }

    /// The result schema.
    pub fn schema(&self) -> &Schema {
        self.batch.schema()
    }

    /// The result as a columnar batch.
    pub fn batch(&self) -> &VectorBatch {
        &self.batch
    }

    /// The result rows (materialized).
    pub fn rows(&self) -> Vec<Row> {
        self.batch.to_rows()
    }

    /// Number of result rows.
    pub fn num_rows(&self) -> usize {
        self.batch.num_rows()
    }

    /// Rows rendered as tab-separated strings (tests/CLI).
    pub fn display_rows(&self) -> Vec<String> {
        self.batch.to_rows().iter().map(|r| r.to_string()).collect()
    }
}

/// One client session: current database plus user identity — user,
/// groups, and application name, which the workload manager's mappings
/// route on (precedence: user, then group, then application).
pub struct Session {
    pub(crate) server: HiveServer,
    pub(crate) db: RwLock<String>,
    pub(crate) user: String,
    pub(crate) application: Option<String>,
    pub(crate) groups: Vec<String>,
}

impl Session {
    pub(crate) fn new(
        server: HiveServer,
        db: &str,
        user: &str,
        application: Option<&str>,
    ) -> Session {
        Session::with_groups(server, db, user, application, &[])
    }

    pub(crate) fn with_groups(
        server: HiveServer,
        db: &str,
        user: &str,
        application: Option<&str>,
        groups: &[String],
    ) -> Session {
        Session {
            server,
            db: RwLock::new(db.to_string()),
            user: user.to_string(),
            application: application.map(String::from),
            groups: groups.to_vec(),
        }
    }

    /// The session's current database.
    pub fn current_db(&self) -> String {
        self.db.read().clone()
    }

    /// Execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let stmt = hive_sql::parse_sql(sql)?;
        self.execute_statement(stmt)
    }

    /// Execute a script of `;`-separated statements, returning the last
    /// result.
    pub fn execute_script(&self, sql: &str) -> Result<QueryResult> {
        let stmts = hive_sql::parser::parse_statements(sql)?;
        let mut last = QueryResult::empty();
        for s in stmts {
            last = self.execute_statement(s)?;
        }
        Ok(last)
    }

    /// The owning server.
    pub fn server(&self) -> &HiveServer {
        &self.server
    }
}
