//! Error types shared across the warehouse.

use std::fmt;

/// Convenience alias used across all hive-rs crates.
pub type Result<T, E = HiveError> = std::result::Result<T, E>;

/// The unified error type for the warehouse.
///
/// Variants are coarse-grained by subsystem; the payload carries a
/// human-readable description. Several variants are load-bearing for
/// control flow (e.g. [`HiveError::Retryable`] drives query
/// re-optimization, [`HiveError::TxnAborted`] drives conflict handling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HiveError {
    /// SQL text failed to lex/parse.
    Parse(String),
    /// Name resolution / type checking failed.
    Analysis(String),
    /// Plan construction or rewriting failed.
    Plan(String),
    /// Runtime execution failure.
    Execution(String),
    /// A failure that query re-execution (Section 4.2 of the paper) may fix,
    /// e.g. a mis-planned hash join exceeding its memory budget.
    Retryable(String),
    /// Catalog object missing or invalid.
    Catalog(String),
    /// Transaction was aborted (conflict, timeout, or explicit).
    TxnAborted(String),
    /// Lock acquisition failed or timed out.
    Lock(String),
    /// Simulated file-system failure.
    Io(String),
    /// Corrupt or unsupported file content.
    Format(String),
    /// Feature not supported by the active engine version (used to model
    /// Hive 1.2's missing SQL surface in Figure 7).
    Unsupported(String),
    /// Workload manager rejected or killed the query.
    Workload(String),
    /// Federation / external system failure.
    External(String),
    /// A transient infrastructure fault (injected or real): flaky DFS
    /// read, daemon restart mid-query, corrupt cache chunk. Safe to
    /// retry at fragment granularity — and, if fragment retries are
    /// exhausted, at driver granularity (§4.2).
    Transient(String),
    /// A fragment exhausted its retry budget and its node failovers;
    /// the driver-level re-execution ladder is the only rung left.
    FragmentLost(String),
    /// A MERGE matched one target row with more than one source row, so
    /// which source row should rewrite it is undefined (Hive's
    /// cardinality check). Nothing was written.
    CardinalityViolation(String),
    /// An operator asked the per-query memory broker for more bytes than
    /// its grant allows and could not degrade (spill disabled or spill
    /// itself impossible). Deliberately *not* retryable: with spill
    /// enabled the operators degrade to disk instead of raising it, and
    /// when spill is disabled the join build downgrades it to
    /// [`HiveError::Retryable`] so the §4.2 re-optimization ladder still
    /// applies.
    MemoryExceeded {
        /// Operator that exhausted its grant (e.g. `hash-join-build`).
        operator: String,
        /// Bytes the operator asked for in total.
        requested: u64,
        /// Bytes the broker was able to grant.
        granted: u64,
    },
    /// An operator observed >10× more rows than the optimizer
    /// estimated (§4.2's "significantly different statistics"). Raised
    /// at most once per query by the executor's cardinality guard;
    /// the driver re-optimizes with the observed count substituted for
    /// the estimate and re-executes — results are identical, only the
    /// plan changes.
    CardinalityMisestimate {
        /// Operator whose estimate was off (e.g. `join`).
        operator: String,
        /// Sorted base tables feeding the operator — the feedback key.
        tables: String,
        /// Rows the operator actually produced.
        observed: u64,
        /// Rows the optimizer predicted.
        estimated: u64,
    },
}

impl HiveError {
    /// Short subsystem tag, used by EXPLAIN/diagnostic output.
    pub fn kind(&self) -> &'static str {
        match self {
            HiveError::Parse(_) => "PARSE",
            HiveError::Analysis(_) => "ANALYSIS",
            HiveError::Plan(_) => "PLAN",
            HiveError::Execution(_) => "EXECUTION",
            HiveError::Retryable(_) => "RETRYABLE",
            HiveError::Catalog(_) => "CATALOG",
            HiveError::TxnAborted(_) => "TXN_ABORTED",
            HiveError::Lock(_) => "LOCK",
            HiveError::Io(_) => "IO",
            HiveError::Format(_) => "FORMAT",
            HiveError::Unsupported(_) => "UNSUPPORTED",
            HiveError::Workload(_) => "WORKLOAD",
            HiveError::External(_) => "EXTERNAL",
            HiveError::Transient(_) => "TRANSIENT",
            HiveError::FragmentLost(_) => "FRAGMENT_LOST",
            HiveError::CardinalityViolation(_) => "CARDINALITY_VIOLATION",
            HiveError::MemoryExceeded { .. } => "MEMORY_EXCEEDED",
            HiveError::CardinalityMisestimate { .. } => "CARDINALITY_MISESTIMATE",
        }
    }

    /// Whether the driver should attempt re-optimization + re-execution.
    /// Covers planner mispredictions ([`HiveError::Retryable`],
    /// [`HiveError::CardinalityMisestimate`]) and infrastructure faults
    /// that escaped fragment-level recovery ([`HiveError::Transient`],
    /// [`HiveError::FragmentLost`]).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            HiveError::Retryable(_)
                | HiveError::Transient(_)
                | HiveError::FragmentLost(_)
                | HiveError::CardinalityMisestimate { .. }
        )
    }

    /// Whether this is a transient infrastructure fault, i.e. retrying
    /// the same work (same plan) may simply succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, HiveError::Transient(_) | HiveError::FragmentLost(_))
    }

    fn message(&self) -> std::borrow::Cow<'_, str> {
        match self {
            HiveError::Parse(m)
            | HiveError::Analysis(m)
            | HiveError::Plan(m)
            | HiveError::Execution(m)
            | HiveError::Retryable(m)
            | HiveError::Catalog(m)
            | HiveError::TxnAborted(m)
            | HiveError::Lock(m)
            | HiveError::Io(m)
            | HiveError::Format(m)
            | HiveError::Unsupported(m)
            | HiveError::Workload(m)
            | HiveError::External(m)
            | HiveError::Transient(m)
            | HiveError::FragmentLost(m)
            | HiveError::CardinalityViolation(m) => m.as_str().into(),
            HiveError::MemoryExceeded {
                operator,
                requested,
                granted,
            } => format!(
                "{operator} requested {requested} bytes but the memory broker \
                 granted only {granted}"
            )
            .into(),
            HiveError::CardinalityMisestimate {
                operator,
                tables,
                observed,
                estimated,
            } => format!(
                "{operator} over {tables} produced {observed} rows vs {estimated} estimated"
            )
            .into(),
        }
    }
}

impl fmt::Display for HiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for HiveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = HiveError::Parse("unexpected token".into());
        assert_eq!(e.to_string(), "PARSE: unexpected token");
    }

    #[test]
    fn retryable_flag() {
        assert!(HiveError::Retryable("oom".into()).is_retryable());
        assert!(HiveError::Transient("flaky read".into()).is_retryable());
        assert!(HiveError::FragmentLost("retries exhausted".into()).is_retryable());
        assert!(!HiveError::Execution("boom".into()).is_retryable());
    }

    #[test]
    fn transient_flag() {
        assert!(HiveError::Transient("flaky read".into()).is_transient());
        assert!(HiveError::FragmentLost("gone".into()).is_transient());
        assert!(!HiveError::Retryable("oom".into()).is_transient());
        assert!(!HiveError::Io("missing".into()).is_transient());
    }

    #[test]
    fn memory_exceeded_is_typed_and_not_retryable() {
        let e = HiveError::MemoryExceeded {
            operator: "hash-join-build".into(),
            requested: 4096,
            granted: 1024,
        };
        assert_eq!(e.kind(), "MEMORY_EXCEEDED");
        assert!(!e.is_retryable(), "spill handles it; reopt does not");
        assert!(!e.is_transient());
        assert_eq!(
            e.to_string(),
            "MEMORY_EXCEEDED: hash-join-build requested 4096 bytes but the \
             memory broker granted only 1024"
        );
    }

    #[test]
    fn cardinality_misestimate_is_typed_and_retryable() {
        let e = HiveError::CardinalityMisestimate {
            operator: "join".into(),
            tables: "db.fact,db.dim".into(),
            observed: 500_000,
            estimated: 1_000,
        };
        assert_eq!(e.kind(), "CARDINALITY_MISESTIMATE");
        assert!(e.is_retryable(), "must enter the §4.2 re-plan ladder");
        assert!(!e.is_transient(), "same plan would misestimate again");
        assert_eq!(
            e.to_string(),
            "CARDINALITY_MISESTIMATE: join over db.fact,db.dim produced \
             500000 rows vs 1000 estimated"
        );
    }

    #[test]
    fn kind_covers_all_variants() {
        let variants = [
            HiveError::Parse(String::new()),
            HiveError::Analysis(String::new()),
            HiveError::Plan(String::new()),
            HiveError::Execution(String::new()),
            HiveError::Retryable(String::new()),
            HiveError::Catalog(String::new()),
            HiveError::TxnAborted(String::new()),
            HiveError::Lock(String::new()),
            HiveError::Io(String::new()),
            HiveError::Format(String::new()),
            HiveError::Unsupported(String::new()),
            HiveError::Workload(String::new()),
            HiveError::External(String::new()),
            HiveError::Transient(String::new()),
            HiveError::FragmentLost(String::new()),
            HiveError::MemoryExceeded {
                operator: String::new(),
                requested: 0,
                granted: 0,
            },
            HiveError::CardinalityMisestimate {
                operator: String::new(),
                tables: String::new(),
                observed: 0,
                estimated: 0,
            },
        ];
        let kinds: std::collections::HashSet<_> = variants.iter().map(|v| v.kind()).collect();
        assert_eq!(kinds.len(), variants.len(), "kinds must be distinct");
    }
}
