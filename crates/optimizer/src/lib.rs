//! # hive-optimizer
//!
//! The Calcite-equivalent optimizer (paper §4): the driver parses SQL to
//! an AST ([`hive_sql`]), the [`analyzer`] binds it into a typed
//! [`plan::LogicalPlan`], and [`optimizer::Optimizer`] runs multi-stage
//! rewriting:
//!
//! 1. **Exhaustive stage** — rule-based rewrites in passes until no rule
//!    changes the plan: constant folding, predicate simplification and
//!    pushdown, filter and projection merging, empty pruning.
//! 2. **Cost-based stages** — materialized-view rewriting ([`mv_rewrite`])
//!    and join reordering driven by HMS statistics ([`stats`]); then
//!    static partition pruning, projection pruning, and dynamic
//!    semijoin-reduction planning ([`rules::semijoin`]).
//!
//! Plan fingerprints ([`fingerprint`]) serve the shared-work optimizer
//! (§4.5) and the query results cache (§4.3).

pub mod analyzer;
pub mod eval;
pub mod expr;
pub mod fingerprint;
pub mod mv_rewrite;
pub mod optimizer;
pub mod plan;
pub mod rules;
pub mod stats;

pub use analyzer::{Analyzer, CatalogView, DmlKind, DmlPlan, MetastoreCatalog, UpdateArm};
pub use expr::{AggExpr, AggFunc, BuiltinFunc, ScalarExpr, SortKey, WindowExpr, WindowFunc};
pub use optimizer::{Optimizer, OptimizerContext};
pub use plan::{JoinType, LogicalPlan, ScanTable, SemiJoinFilterSpec};
