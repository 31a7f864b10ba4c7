//! The data catalog: databases, tables, partitions, constraints, and
//! materialized-view metadata.

use hive_common::{Field, HiveError, Result, Schema, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a table is managed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableType {
    /// Full-ACID managed table stored in base/delta layout.
    Managed,
    /// External table: plain files (or an external system via a storage
    /// handler); no ACID guarantees.
    External,
    /// A materialized view — "semantically enriched table" (§4.4).
    MaterializedView,
}

/// Declared integrity constraints. Hive does not enforce PK/FK/UNIQUE at
/// write time; they are *informational* and exploited by the optimizer's
/// MV rewriting (§4.4). NOT NULL is enforced (it lives on the Field).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Constraint {
    /// Primary key over the named columns.
    PrimaryKey(Vec<String>),
    /// Foreign key: `columns` reference `ref_table(ref_columns)`.
    ForeignKey {
        columns: Vec<String>,
        ref_table: String,
        ref_columns: Vec<String>,
    },
    /// Unique key over the named columns.
    Unique(Vec<String>),
}

/// One partition of a partitioned table: the partition-column values and
/// the directory its data lives in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionInfo {
    /// Values of the partition columns, in partition-key order.
    pub values: Vec<Value>,
    /// DFS directory for this partition's data.
    pub location: String,
}

/// Metadata for a materialized view (§4.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaterializedViewInfo {
    /// The defining query text.
    pub definition: String,
    /// Qualified names (`db.table`) of the source tables.
    pub source_tables: Vec<String>,
    /// Per-source-table high-watermark WriteId captured at the last
    /// (re)build — the snapshot the MV contents reflect.
    pub source_snapshots: BTreeMap<String, u64>,
    /// Per-source-table [`Table::incarnation`] at the last (re)build: a
    /// mark in `source_snapshots` means something only for the creation
    /// of the name it was taken from.
    pub source_incarnations: BTreeMap<String, u64>,
    /// Wall-clock millis (UNIX epoch) of the last (re)build.
    pub last_rebuild_millis: u64,
    /// Allowed staleness window in millis; `None` means the view is only
    /// used for rewriting while fully fresh (the default lifecycle).
    pub staleness_window_millis: Option<u64>,
    /// Whether rewriting is enabled at all for this view.
    pub rewrite_enabled: bool,
}

/// A table (or materialized view) in the catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Database name.
    pub db: String,
    /// Table name.
    pub name: String,
    /// Data columns (excluding partition columns, like Hive).
    pub schema: Schema,
    /// Partition columns, declared via `PARTITIONED BY` (§3.1).
    pub partition_keys: Vec<Field>,
    /// Management type.
    pub table_type: TableType,
    /// Storage handler identifier for federated tables (§6.1), e.g.
    /// `"druid"` or `"jdbc"`. `None` for native tables.
    pub storage_handler: Option<String>,
    /// Free-form table properties (`TBLPROPERTIES`).
    pub properties: BTreeMap<String, String>,
    /// Declared constraints.
    pub constraints: Vec<Constraint>,
    /// Root DFS directory for the table.
    pub location: String,
    /// Registered partitions keyed by their rendered directory name
    /// (e.g. `sold_date_sk=17000`), ordered for deterministic listing.
    pub partitions: BTreeMap<String, PartitionInfo>,
    /// Materialized-view metadata (present iff `table_type` is
    /// `MaterializedView`).
    pub mv_info: Option<MaterializedViewInfo>,
    /// Which creation of its name this table is: the catalog numbers
    /// every `CREATE` it accepts, so a dropped-and-recreated table
    /// differs from its predecessor here when nothing else does (WriteId
    /// counters are kept per *name* and survive the drop). 0 until
    /// registered.
    pub incarnation: u64,
}

impl Table {
    /// Fully qualified `db.name`.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.db, self.name)
    }

    /// The full logical schema: data columns then partition columns
    /// (partition columns are readable like ordinary columns).
    pub fn full_schema(&self) -> Schema {
        let mut fields = self.schema.fields().to_vec();
        fields.extend(self.partition_keys.iter().cloned());
        Schema::new(fields)
    }

    /// True for partitioned tables.
    pub fn is_partitioned(&self) -> bool {
        !self.partition_keys.is_empty()
    }

    /// True for tables with ACID semantics.
    pub fn is_acid(&self) -> bool {
        matches!(
            self.table_type,
            TableType::Managed | TableType::MaterializedView
        ) && self.storage_handler.is_none()
    }

    /// Index of a partition column within `partition_keys`, if `name`
    /// is one.
    pub fn partition_key_index(&self, name: &str) -> Option<usize> {
        let lname = name.to_ascii_lowercase();
        self.partition_keys.iter().position(|f| f.name == lname)
    }

    /// Render the directory name for a partition value vector, e.g.
    /// `sold_date_sk=17000` (single key) or `y=2018/m=3` (multi key).
    pub fn partition_dir_name(&self, values: &[Value]) -> String {
        self.partition_keys
            .iter()
            .zip(values)
            .map(|(k, v)| format!("{}={}", k.name, v))
            .collect::<Vec<_>>()
            .join("/")
    }

    /// Columns declared as a primary key, if any.
    pub fn primary_key(&self) -> Option<&[String]> {
        self.constraints.iter().find_map(|c| match c {
            Constraint::PrimaryKey(cols) => Some(cols.as_slice()),
            _ => None,
        })
    }
}

/// A database: a namespace of tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Database {
    /// Database name.
    pub name: String,
    /// Tables by (lower-case) name: published snapshots. Readers take
    /// the `Arc`; mutators go through [`Catalog::table_mut`], which
    /// copies only when a reader still holds the current snapshot.
    pub tables: BTreeMap<String, Arc<Table>>,
}

/// The whole catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    databases: BTreeMap<String, Database>,
    /// Tables registered so far — the last [`Table::incarnation`] given.
    creations: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// A catalog containing only the `default` database.
    pub fn new() -> Self {
        let mut databases = BTreeMap::new();
        databases.insert(
            "default".to_string(),
            Database {
                name: "default".to_string(),
                tables: BTreeMap::new(),
            },
        );
        Catalog {
            databases,
            creations: 0,
        }
    }

    /// Create a database.
    pub fn create_database(&mut self, name: &str) -> Result<()> {
        let lname = name.to_ascii_lowercase();
        if self.databases.contains_key(&lname) {
            return Err(HiveError::Catalog(format!("database exists: {name}")));
        }
        self.databases.insert(
            lname.clone(),
            Database {
                name: lname,
                tables: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Drop a database (must be empty).
    pub fn drop_database(&mut self, name: &str) -> Result<()> {
        let lname = name.to_ascii_lowercase();
        let db = self
            .databases
            .get(&lname)
            .ok_or_else(|| HiveError::Catalog(format!("database not found: {name}")))?;
        if !db.tables.is_empty() {
            return Err(HiveError::Catalog(format!("database not empty: {name}")));
        }
        self.databases.remove(&lname);
        Ok(())
    }

    /// Look up a database.
    pub fn database(&self, name: &str) -> Result<&Database> {
        self.databases
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| HiveError::Catalog(format!("database not found: {name}")))
    }

    /// Register a table, stamping its [`Table::incarnation`].
    pub fn create_table(&mut self, mut table: Table) -> Result<()> {
        let db = self
            .databases
            .get_mut(&table.db)
            .ok_or_else(|| HiveError::Catalog(format!("database not found: {}", table.db)))?;
        if db.tables.contains_key(&table.name) {
            return Err(HiveError::Catalog(format!(
                "table exists: {}",
                table.qualified_name()
            )));
        }
        self.creations += 1;
        table.incarnation = self.creations;
        db.tables.insert(table.name.clone(), Arc::new(table));
        Ok(())
    }

    /// Remove a table, returning its metadata.
    pub fn drop_table(&mut self, db: &str, name: &str) -> Result<Arc<Table>> {
        let dbl = db.to_ascii_lowercase();
        let namel = name.to_ascii_lowercase();
        let d = self
            .databases
            .get_mut(&dbl)
            .ok_or_else(|| HiveError::Catalog(format!("database not found: {db}")))?;
        d.tables
            .remove(&namel)
            .ok_or_else(|| HiveError::Catalog(format!("table not found: {db}.{name}")))
    }

    /// Look up a table's published snapshot.
    pub fn table(&self, db: &str, name: &str) -> Result<&Arc<Table>> {
        self.database(db)?
            .tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| HiveError::Catalog(format!("table not found: {db}.{name}")))
    }

    /// Mutable table lookup. Copy-on-write: in place when no reader
    /// holds the current snapshot, on a private copy otherwise — a
    /// snapshot a planner or scan holds never changes under it.
    pub fn table_mut(&mut self, db: &str, name: &str) -> Result<&mut Table> {
        self.databases
            .get_mut(&db.to_ascii_lowercase())
            .ok_or_else(|| HiveError::Catalog(format!("database not found: {db}")))?
            .tables
            .get_mut(&name.to_ascii_lowercase())
            .map(Arc::make_mut)
            .ok_or_else(|| HiveError::Catalog(format!("table not found: {db}.{name}")))
    }

    /// All tables in a database.
    pub fn tables_in(&self, db: &str) -> Result<Vec<&Arc<Table>>> {
        Ok(self.database(db)?.tables.values().collect())
    }

    /// All materialized views across all databases whose rewriting is
    /// enabled (candidates for §4.4 rewriting).
    pub fn rewrite_enabled_views(&self) -> Vec<&Arc<Table>> {
        self.databases
            .values()
            .flat_map(|d| d.tables.values())
            .filter(|t| {
                t.table_type == TableType::MaterializedView
                    && t.mv_info.as_ref().is_some_and(|m| m.rewrite_enabled)
            })
            .collect()
    }
}

/// Builder for [`Table`], keeping construction readable at call sites.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Start building a managed table `db.name` with data columns.
    pub fn new(db: &str, name: &str, schema: Schema) -> Self {
        let db = db.to_ascii_lowercase();
        let name = name.to_ascii_lowercase();
        let location = format!("/warehouse/{db}/{name}");
        TableBuilder {
            table: Table {
                db,
                name,
                schema,
                partition_keys: Vec::new(),
                table_type: TableType::Managed,
                storage_handler: None,
                properties: BTreeMap::new(),
                constraints: Vec::new(),
                location,
                partitions: BTreeMap::new(),
                mv_info: None,
                incarnation: 0,
            },
        }
    }

    /// Declare partition columns.
    pub fn partitioned_by(mut self, keys: Vec<Field>) -> Self {
        self.table.partition_keys = keys;
        self
    }

    /// Set the table type.
    pub fn table_type(mut self, t: TableType) -> Self {
        self.table.table_type = t;
        self
    }

    /// Attach a storage handler (federated table).
    pub fn stored_by(mut self, handler: &str) -> Self {
        self.table.storage_handler = Some(handler.to_string());
        self.table.table_type = TableType::External;
        self
    }

    /// Add a table property.
    pub fn property(mut self, k: &str, v: &str) -> Self {
        self.table.properties.insert(k.to_string(), v.to_string());
        self
    }

    /// Add a constraint.
    pub fn constraint(mut self, c: Constraint) -> Self {
        self.table.constraints.push(c);
        self
    }

    /// Attach materialized-view metadata.
    pub fn mv_info(mut self, info: MaterializedViewInfo) -> Self {
        self.table.mv_info = Some(info);
        self.table.table_type = TableType::MaterializedView;
        self
    }

    /// Finish.
    pub fn build(self) -> Table {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::DataType;

    fn sample_table() -> Table {
        TableBuilder::new(
            "default",
            "store_sales",
            Schema::new(vec![
                Field::new("item_sk", DataType::Int),
                Field::new("price", DataType::Decimal(7, 2)),
            ]),
        )
        .partitioned_by(vec![Field::new("sold_date_sk", DataType::Int)])
        .constraint(Constraint::PrimaryKey(vec!["item_sk".into()]))
        .build()
    }

    #[test]
    fn create_lookup_drop() {
        let mut c = Catalog::new();
        c.create_table(sample_table()).unwrap();
        let t = c.table("default", "STORE_SALES").unwrap();
        assert_eq!(t.qualified_name(), "default.store_sales");
        assert!(c.create_table(sample_table()).is_err());
        c.drop_table("default", "store_sales").unwrap();
        assert!(c.table("default", "store_sales").is_err());
    }

    #[test]
    fn every_creation_of_a_name_is_a_new_incarnation() {
        let mut c = Catalog::new();
        c.create_table(sample_table()).unwrap();
        let first = c.table("default", "store_sales").unwrap().incarnation;
        assert_ne!(first, 0);
        c.drop_table("default", "store_sales").unwrap();
        c.create_table(sample_table()).unwrap();
        assert_ne!(
            c.table("default", "store_sales").unwrap().incarnation,
            first
        );
    }

    #[test]
    fn databases() {
        let mut c = Catalog::new();
        c.create_database("tpcds").unwrap();
        assert!(c.create_database("TPCDS").is_err());
        assert!(c.drop_database("tpcds").is_ok());
        assert!(c.database("tpcds").is_err());
    }

    #[test]
    fn full_schema_appends_partition_keys() {
        let t = sample_table();
        let fs = t.full_schema();
        assert_eq!(fs.names(), vec!["item_sk", "price", "sold_date_sk"]);
        assert!(t.is_partitioned());
        assert_eq!(t.partition_key_index("sold_date_sk"), Some(0));
        assert_eq!(
            t.partition_dir_name(&[Value::Int(17000)]),
            "sold_date_sk=17000"
        );
    }

    #[test]
    fn constraints_queryable() {
        let t = sample_table();
        assert_eq!(t.primary_key(), Some(&["item_sk".to_string()][..]));
    }

    #[test]
    fn mv_listing() {
        let mut c = Catalog::new();
        let mv = TableBuilder::new(
            "default",
            "mat_view",
            Schema::new(vec![Field::new("s", DataType::Double)]),
        )
        .mv_info(MaterializedViewInfo {
            definition: "SELECT ...".into(),
            source_tables: vec!["default.store_sales".into()],
            source_snapshots: BTreeMap::new(),
            source_incarnations: BTreeMap::new(),
            last_rebuild_millis: 0,
            staleness_window_millis: None,
            rewrite_enabled: true,
        })
        .build();
        c.create_table(mv).unwrap();
        c.create_table(sample_table()).unwrap();
        assert_eq!(c.rewrite_enabled_views().len(), 1);
    }
}
