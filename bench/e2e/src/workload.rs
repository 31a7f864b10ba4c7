//! The four workloads: what each one runs, generated from a seed.
//!
//! Every workload is a closed loop of one client over one server. A
//! [`Spec`] holds the server configuration, how to build the warehouse,
//! and the list of *distinct* operations; a pass is a sequence of indexes
//! into that list. The warm-up pass runs every distinct operation once,
//! in order.
//!
//! Why these four (the README has the long form):
//!
//! * `tpcds_warm` — the 28 curated TPC-DS queries over a cache-resident
//!   warehouse: operator time dominates, scan and compile are noise.
//! * `scan_cold` — scan-bound statements under an LLAP cache a quarter
//!   the size of the working set: decode, cache policy and DFS reads are
//!   a large share of every operation.
//! * `bi_short` — millisecond dashboard queries with the results cache
//!   and one materialized view on: parse, optimize and driver overhead
//!   dominate, the executor does little.
//! * `acid_churn` — insert/update/delete/merge rounds with reads in
//!   between on a day-partitioned ACID table: the write side of the
//!   layers `scan_cold` reads through, plus compaction.

use hive_benchdata::tpcds::{self, TpcdsScale};
use hive_common::{HiveConf, Result, Row, Value};
use hive_core::{HiveServer, Session};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpcdsWarm,
    ScanCold,
    BiShort,
    AcidChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TpcdsWarm,
        Workload::ScanCold,
        Workload::BiShort,
        Workload::AcidChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpcdsWarm => "tpcds_warm",
            Workload::ScanCold => "scan_cold",
            Workload::BiShort => "bi_short",
            Workload::AcidChurn => "acid_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is the benchmark; `Tiny` exists for the smoke test only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    /// The warehouse behind the three read workloads: 300 000
    /// `store_sales` rows (≈37 MB decoded) at full scale.
    pub fn tpcds(self) -> TpcdsScale {
        match self {
            Scale::Full => TpcdsScale {
                days: 60,
                sales_per_day: 5000,
                items: 2000,
                customers: 5000,
                stores: 10,
                return_rate: 0.1,
            },
            Scale::Tiny => TpcdsScale::tiny(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Read,
    Insert,
    Update,
    Delete,
    Merge,
    Ddl,
}

impl OpKind {
    /// Statements whose `affected_rows` count as rows written.
    pub fn is_dml(self) -> bool {
        matches!(
            self,
            OpKind::Insert | OpKind::Update | OpKind::Delete | OpKind::Merge
        )
    }
}

#[derive(Debug, Clone)]
pub enum Action {
    Sql(String),
    /// `Session::bulk_insert` — the loaders' fast path, one transaction.
    BulkInsert {
        table: String,
        rows: Vec<Row>,
    },
}

/// One operation of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    /// Stable identity across passes, runs and seeds (`q27`,
    /// `r03.update`, …); the key of the expected-digest files.
    pub id: String,
    pub kind: OpKind,
    pub action: Action,
    /// Digest of the outcome as predicted by an in-harness model of the
    /// data, where there is one (`acid_churn`): an oracle that shares no
    /// code with the engine.
    pub model_digest: Option<u64>,
}

impl Op {
    fn sql(id: impl Into<String>, kind: OpKind, sql: impl Into<String>) -> Op {
        Op {
            id: id.into(),
            kind,
            action: Action::Sql(sql.into()),
            model_digest: None,
        }
    }

    /// The SQL text, for operations that have one.
    pub fn text(&self) -> Option<&str> {
        match &self.action {
            Action::Sql(s) => Some(s),
            Action::BulkInsert { .. } => None,
        }
    }
}

/// FNV-1a over the lines of an outcome. Explicit rather than
/// `DefaultHasher` because the digests are checked in.
pub fn digest_lines(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in lines {
        for b in l.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The outcome of a write as the digest sees it.
pub fn affected_line(n: u64) -> String {
    format!("#affected={n}")
}

/// SplitMix64: the benchmark's own generator, so that operation lists
/// depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `n` distinct values of `0..domain`, in random order
    /// (`min(n, domain)` of them).
    fn distinct(&mut self, n: usize, domain: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..domain).collect();
        self.shuffle(&mut all);
        all.truncate(n);
        all
    }
}

/// How `bi_short` draws a pass from its distinct texts.
#[derive(Debug, Clone)]
struct Draw {
    /// Operations per pass.
    block: usize,
    /// Indexes of the hot texts.
    hot: Vec<usize>,
    /// Share of draws that go to a hot text, in percent.
    hot_pct: usize,
}

/// A workload instantiated for one seed and scale.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    /// The server configuration; `HiveConf::v3_1()` except where the
    /// workload's definition says otherwise.
    pub conf: HiveConf,
    /// Every distinct operation. The warm-up pass is this list in order.
    pub ops: Vec<Op>,
    draw: Option<Draw>,
    /// Load the TPC-DS warehouse at set-up.
    warehouse: bool,
    /// Statements run once after the load (the materialized view).
    prepare_sql: Vec<String>,
    /// Small read-only input tables created once at set-up.
    staging: Vec<(String, Vec<Row>)>,
    /// The table whose directory `space_amplification` sizes and the
    /// layer probes read.
    pub main_table: &'static str,
    /// Bytes a user would say one row of the main table holds (mean).
    pub row_bytes: f64,
    /// Live rows of the main table after a pass, where the model knows
    /// them; counted with a query otherwise.
    live_rows: Option<u64>,
    /// A join and a GROUP BY over the main table, from which the traced
    /// run captures real batches for its kernel probes.
    pub probe_join_sql: String,
    pub probe_agg_sql: String,
}

impl Spec {
    pub fn build(workload: Workload, seed: u64, scale: Scale) -> Spec {
        match workload {
            Workload::TpcdsWarm => tpcds_warm(seed, scale),
            Workload::ScanCold => scan_cold(seed, scale),
            Workload::BiShort => bi_short(seed, scale),
            Workload::AcidChurn => acid_churn(seed, scale),
        }
    }

    /// Build the warehouse on a fresh server.
    pub fn prepare(&self, server: &HiveServer) -> Result<()> {
        let session = server.session();
        if self.warehouse {
            tpcds::load(server, self.scale.tpcds(), self.seed)?;
        }
        for sql in &self.prepare_sql {
            session.execute(sql)?;
        }
        for (table, rows) in &self.staging {
            session.execute(&format!("CREATE TABLE {table} ({CHURN_COLUMNS}, day INT)"))?;
            session.bulk_insert(table, rows.clone())?;
        }
        Ok(())
    }

    /// Operation indexes of timed pass `pass` (1-based; 0 is the
    /// warm-up). Fixed-list workloads repeat the list; `bi_short` draws
    /// a fresh block from `(seed, pass)`.
    pub fn pass(&self, pass: usize) -> Vec<usize> {
        let Some(draw) = &self.draw else {
            return (0..self.ops.len()).collect();
        };
        let mut rng = Rng::new(self.seed ^ (pass as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        let cold: Vec<usize> = (0..self.ops.len())
            .filter(|i| !draw.hot.contains(i))
            .collect();
        (0..draw.block)
            .map(|_| {
                if rng.below(100) < draw.hot_pct || cold.is_empty() {
                    draw.hot[rng.below(draw.hot.len())]
                } else {
                    cold[rng.below(cold.len())]
                }
            })
            .collect()
    }

    /// Whether any operation writes (only `acid_churn`'s do).
    pub fn writes(&self) -> bool {
        self.ops.iter().any(|o| o.kind.is_dml())
    }

    /// Bytes of live user data in the main table.
    pub fn logical_bytes(&self, session: &Session) -> Result<f64> {
        let rows = match self.live_rows {
            Some(rows) => rows,
            None => {
                let r = session.execute(&format!("SELECT COUNT(*) FROM {}", self.main_table))?;
                r.display_rows()[0].parse().unwrap_or(0)
            }
        };
        Ok(rows as f64 * self.row_bytes)
    }

    fn read_only(
        workload: Workload,
        seed: u64,
        scale: Scale,
        conf: HiveConf,
        ops: Vec<Op>,
    ) -> Spec {
        Spec {
            workload,
            seed,
            scale,
            conf,
            ops,
            draw: None,
            warehouse: true,
            prepare_sql: vec![],
            staging: vec![],
            main_table: "store_sales",
            // 8 INT + 5 DECIMAL(7,2) data columns and the INT partition
            // key, at 4 and 8 bytes.
            row_bytes: (8 * 4 + 5 * 8 + 4) as f64,
            live_rows: None,
            probe_join_sql: "SELECT ss_quantity, i_category FROM store_sales, item \
                             WHERE ss_item_sk = i_item_sk"
                .into(),
            probe_agg_sql: "SELECT ss_store_sk, COUNT(*), SUM(ss_ext_sales_price) \
                            FROM store_sales GROUP BY ss_store_sk"
                .into(),
        }
    }
}

// ---- tpcds_warm -------------------------------------------------------

fn tpcds_warm(seed: u64, scale: Scale) -> Spec {
    let ops = tpcds::queries()
        .into_iter()
        .map(|q| Op::sql(q.id, OpKind::Read, q.sql))
        .collect();
    // Results cache off, or every pass after the first would time a
    // cache fetch. The default 256 MiB LLAP cache holds the whole
    // working set.
    let conf = HiveConf::v3_1().with(|c| c.results_cache = false);
    Spec::read_only(Workload::TpcdsWarm, seed, scale, conf, ops)
}

// ---- scan_cold --------------------------------------------------------

const SALES_INT: [&str; 8] = [
    "ss_item_sk",
    "ss_customer_sk",
    "ss_store_sk",
    "ss_hdemo_sk",
    "ss_addr_sk",
    "ss_promo_sk",
    "ss_ticket_number",
    "ss_quantity",
];
const SALES_DEC: [&str; 5] = [
    "ss_wholesale_cost",
    "ss_list_price",
    "ss_sales_price",
    "ss_ext_sales_price",
    "ss_net_profit",
];

fn scan_cold(seed: u64, scale: Scale) -> Spec {
    let t = scale.tpcds();
    let mut rng = Rng::new(seed ^ 0x5ca1_ab1e);
    let base = tpcds::base_date_sk() as usize;
    let mut cols: Vec<&str> = SALES_INT.iter().chain(&SALES_DEC).copied().collect();
    let sweep = |cols: &[&str]| {
        let aggs: Vec<String> = cols
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{}({c})", ["SUM", "MIN", "MAX"][i % 3]))
            .collect();
        format!("SELECT {} FROM store_sales", aggs.join(", "))
    };
    let mut ops = vec![Op::sql("sweep_all", OpKind::Read, sweep(&cols))];
    // Four narrower sweeps that together touch every column twice.
    rng.shuffle(&mut cols);
    for i in 0..4 {
        let pick: Vec<&str> = cols.iter().cycle().skip(i * 6).take(7).copied().collect();
        ops.push(Op::sql(format!("sweep_{i}"), OpKind::Read, sweep(&pick)));
    }
    let span = 30.min(t.days);
    for i in 0..2 {
        let lo = base + rng.below(t.days - span + 1);
        ops.push(Op::sql(
            format!("range_{i}"),
            OpKind::Read,
            format!(
                "SELECT COUNT(*), SUM(ss_ext_sales_price), MAX(ss_quantity) FROM store_sales \
                 WHERE ss_sold_date_sk BETWEEN {lo} AND {}",
                lo + span - 1
            ),
        ));
    }
    // Ticket numbers ascend with load order, so row-group min/max
    // statistics prune all but one group.
    for i in 0..2 {
        let ticket = 1 + rng.below(t.fact_rows());
        ops.push(Op::sql(
            format!("point_{i}"),
            OpKind::Read,
            format!(
                "SELECT ss_item_sk, ss_quantity, ss_sales_price FROM store_sales \
                 WHERE ss_ticket_number = {ticket}"
            ),
        ));
    }
    ops.push(Op::sql(
        "group_store",
        OpKind::Read,
        "SELECT ss_store_sk, COUNT(*), SUM(ss_net_profit) FROM store_sales GROUP BY ss_store_sk",
    ));
    ops.push(Op::sql(
        "returns_sweep",
        OpKind::Read,
        "SELECT COUNT(*), SUM(sr_return_quantity), MAX(sr_return_amt), MIN(sr_item_sk), \
         MAX(sr_customer_sk), MAX(sr_ticket_number) FROM store_returns",
    ));
    ops.push(Op::sql(
        "returns_group",
        OpKind::Read,
        "SELECT sr_return_quantity, COUNT(*), SUM(sr_return_amt) FROM store_returns \
         GROUP BY sr_return_quantity",
    ));
    // 8 MiB is under a quarter of the decoded working set, so LRFU
    // evicts continuously; at tiny scale the cache shrinks with the data.
    let cache = match scale {
        Scale::Full => 8 << 20,
        Scale::Tiny => 64 << 10,
    };
    let conf = HiveConf::v3_1().with(|c| {
        c.results_cache = false;
        c.llap_cache_bytes = cache;
    });
    Spec::read_only(Workload::ScanCold, seed, scale, conf, ops)
}

// ---- bi_short ---------------------------------------------------------

const CATEGORIES: [&str; 10] = [
    "Sports",
    "Books",
    "Music",
    "Home",
    "Electronics",
    "Jewelry",
    "Men",
    "Women",
    "Shoes",
    "Children",
];

fn bi_short(seed: u64, scale: Scale) -> Spec {
    let t = scale.tpcds();
    let mut rng = Rng::new(seed ^ 0xb1_5407);
    let base = tpcds::base_date_sk() as usize;
    // 400 distinct texts at full scale. The mix is chosen so that the
    // median and the 95th percentile each fall well inside one template's
    // latency band — customer lookups (50 %, ≈1 ms) and category joins
    // (20 %, ≈3.5 ms) — and not on the gap between two, where a point of
    // hit rate would move them by a band.
    let (n_rollup, n_item, n_category, n_customer) = match scale {
        Scale::Full => (40, 80, 80, 200),
        Scale::Tiny => (4, 8, 8, 20),
    };
    let mut ops = Vec::new();
    // Answered by the materialized view below.
    for d in rng.distinct(n_rollup, t.days) {
        ops.push(Op::sql(
            format!("rollup_d{d}"),
            OpKind::Read,
            format!(
                "SELECT ss_store_sk, SUM(ss_ext_sales_price) AS total, COUNT(*) AS cnt \
                 FROM store_sales WHERE ss_sold_date_sk = {} GROUP BY ss_store_sk",
                base + d
            ),
        ));
    }
    for i in rng.distinct(n_item, t.items) {
        ops.push(Op::sql(
            format!("item_{i}"),
            OpKind::Read,
            format!(
                "SELECT i_item_id, i_category, i_brand, i_current_price FROM item \
                 WHERE i_item_sk = {i}"
            ),
        ));
    }
    for p in rng.distinct(n_category, t.days * CATEGORIES.len()) {
        let (d, cat) = (p / CATEGORIES.len(), CATEGORIES[p % CATEGORIES.len()]);
        ops.push(Op::sql(
            format!("category_d{d}_{cat}"),
            OpKind::Read,
            format!(
                "SELECT i_brand, SUM(ss_sales_price) AS sales FROM store_sales, item \
                 WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = {} AND i_category = '{cat}' \
                 GROUP BY i_brand ORDER BY sales DESC, i_brand LIMIT 10",
                base + d
            ),
        ));
    }
    for c in rng.distinct(n_customer, t.customers) {
        ops.push(Op::sql(
            format!("customer_{c}"),
            OpKind::Read,
            format!(
                "SELECT c_first_name, c_last_name, ca_city, ca_state \
                 FROM customer, customer_address \
                 WHERE c_current_addr_sk = ca_address_sk AND c_customer_sk = {c}"
            ),
        ));
    }
    // 32 hot texts take 35 % of the draws. They are every n-th text at a
    // seeded offset, so each template has its share of them whatever the
    // seed. Under the 64-entry LRU results cache about a quarter of the
    // operations are hits: the median operation is a miss (compile +
    // execute), which is what a cheaper optimizer must move, and the hit
    // path still carries weight in throughput and the geometric mean.
    let n_hot = 32.min(ops.len() / 4);
    let offset = rng.below(ops.len() / n_hot);
    let hot = (0..n_hot).map(|i| i * ops.len() / n_hot + offset).collect();
    let mut spec = Spec::read_only(Workload::BiShort, seed, scale, HiveConf::v3_1(), ops);
    spec.draw = Some(Draw {
        block: match scale {
            Scale::Full => 1000,
            Scale::Tiny => 100,
        },
        hot,
        hot_pct: 35,
    });
    spec.prepare_sql = vec!["CREATE MATERIALIZED VIEW mv_daily_store AS \
         SELECT ss_sold_date_sk, ss_store_sk, SUM(ss_ext_sales_price) AS total, COUNT(*) AS cnt \
         FROM store_sales GROUP BY ss_sold_date_sk, ss_store_sk"
        .into()];
    spec
}

// ---- acid_churn -------------------------------------------------------

const CHURN_COLUMNS: &str = "id INT, k INT, qty INT, amount DECIMAL(9,2), status STRING";
const STATUSES: [&str; 5] = ["new", "open", "held", "paid", "void"];
/// `k` is uniform in `0..K_DOMAIN`: one value is 0.5 % of the table.
const K_DOMAIN: usize = 200;

#[derive(Debug, Clone)]
struct ChurnRow {
    k: i32,
    qty: i32,
    amount: i128,
    status: String,
    day: i32,
}

impl ChurnRow {
    fn random(rng: &mut Rng, status: &str, day: i32) -> ChurnRow {
        ChurnRow {
            k: rng.below(K_DOMAIN) as i32,
            qty: 1 + rng.below(20) as i32,
            amount: 100 + rng.below(99_900) as i128,
            status: status.to_string(),
            day,
        }
    }

    fn to_row(&self, id: i32) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Int(self.k),
            Value::Int(self.qty),
            Value::Decimal(self.amount, 2),
            Value::String(self.status.clone()),
            Value::Int(self.day),
        ])
    }
}

/// Rounds of bulk insert → UPDATE ≈1 % → DELETE ≈0.5 % → MERGE (half
/// matched) → two reads, on a table re-created at the start of every
/// pass. The generator applies each statement to a model of the table as
/// it emits it, so every operation carries the outcome it must have.
///
/// Sizing: MERGE is a nested loop over target × source at ≈220 ns a
/// pair, so a pass costs about rounds² · batch · staging · 110 ns. The
/// staging table keeps the 200 rows that make MERGE do real matched and
/// unmatched work (100 rewritten, 100 inserted per round); the rounds and
/// the batch are what shrink to fit the run: 8 × 2 000 rows is a pass of
/// ≈3 s, nine tenths of it in MERGE.
fn acid_churn(seed: u64, scale: Scale) -> Spec {
    let (rounds, batch, days, staging_rows) = match scale {
        Scale::Full => (8, 2000, 4, 200),
        Scale::Tiny => (4, 300, 2, 20),
    };
    let mut rng = Rng::new(seed ^ 0xac1d);
    let mut model: BTreeMap<i32, ChurnRow> = BTreeMap::new();
    let mut next_id = 0i32;
    let affected = |n: usize| Some(digest_lines(&[affected_line(n as u64)]));
    let mut ops = vec![
        Op::sql("drop", OpKind::Ddl, "DROP TABLE IF EXISTS churn"),
        Op::sql(
            "create",
            OpKind::Ddl,
            format!("CREATE TABLE churn ({CHURN_COLUMNS}) PARTITIONED BY (day INT)"),
        ),
    ];
    let mut staging = Vec::new();
    for r in 0..rounds {
        let day = (r * days / rounds) as i32;
        let dml = |name: &str, kind, sql: String, n: usize| Op {
            model_digest: affected(n),
            ..Op::sql(format!("r{r:02}.{name}"), kind, sql)
        };

        let mut rows = Vec::with_capacity(batch);
        for _ in 0..batch {
            let status = STATUSES[rng.below(STATUSES.len())];
            let row = ChurnRow::random(&mut rng, status, day);
            rows.push(row.to_row(next_id));
            model.insert(next_id, row);
            next_id += 1;
        }
        ops.push(Op {
            id: format!("r{r:02}.insert"),
            kind: OpKind::Insert,
            action: Action::BulkInsert {
                table: "churn".into(),
                rows,
            },
            model_digest: affected(batch),
        });

        let ks = rng.distinct(3, K_DOMAIN);
        let mut n = 0;
        for row in model.values_mut() {
            if row.k == ks[0] as i32 || row.k == ks[1] as i32 {
                row.qty += 1;
                row.status = "upd".into();
                n += 1;
            }
        }
        ops.push(dml(
            "update",
            OpKind::Update,
            format!(
                "UPDATE churn SET qty = qty + 1, status = 'upd' WHERE k = {} OR k = {}",
                ks[0], ks[1]
            ),
            n,
        ));

        let before = model.len();
        model.retain(|_, row| row.k != ks[2] as i32);
        ops.push(dml(
            "delete",
            OpKind::Delete,
            format!("DELETE FROM churn WHERE k = {}", ks[2]),
            before - model.len(),
        ));

        // Half the staging rows match a live row, half are new.
        let live: Vec<i32> = model.keys().copied().collect();
        let mut source = Vec::with_capacity(staging_rows);
        for (i, pick) in rng
            .distinct(staging_rows / 2, live.len())
            .into_iter()
            .enumerate()
        {
            let id = live[pick];
            let new = ChurnRow::random(&mut rng, "mrg", model[&id].day);
            source.push(new.to_row(id));
            let old = model.get_mut(&id).expect("picked from the live ids");
            (old.qty, old.amount, old.status) = (new.qty, new.amount, new.status);
            let id = 10_000_000 + (r * staging_rows + i) as i32;
            let new = ChurnRow::random(&mut rng, "mrg", day);
            source.push(new.to_row(id));
            model.insert(id, new);
        }
        let table = format!("staging_{r:02}");
        ops.push(dml(
            "merge",
            OpKind::Merge,
            format!(
                "MERGE INTO churn c USING {table} s ON c.id = s.id \
                 WHEN MATCHED THEN UPDATE SET qty = s.qty, amount = s.amount, status = s.status \
                 WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.qty, s.amount, s.status, s.day)"
            ),
            source.len(),
        ));
        staging.push((table, source));

        let mut by_status: BTreeMap<&str, (u64, i64, i128)> = BTreeMap::new();
        let (mut day_rows, mut day_qty) = (0u64, 0i64);
        for row in model.values() {
            let e = by_status.entry(&row.status).or_default();
            *e = (e.0 + 1, e.1 + row.qty as i64, e.2 + row.amount);
            if row.day == day && row.qty > 10 {
                day_rows += 1;
                day_qty += row.qty as i64;
            }
        }
        let mut lines: Vec<String> = by_status
            .iter()
            .map(|(s, (n, q, a))| format!("{s}\t{n}\t{q}\t{}", Value::Decimal(*a, 2)))
            .collect();
        lines.sort();
        ops.push(Op {
            model_digest: Some(digest_lines(&lines)),
            ..Op::sql(
                format!("r{r:02}.read_groups"),
                OpKind::Read,
                "SELECT status, COUNT(*), SUM(qty), SUM(amount) FROM churn GROUP BY status",
            )
        });
        ops.push(Op {
            model_digest: Some(digest_lines(&[format!("{day_rows}\t{day_qty}")])),
            ..Op::sql(
                format!("r{r:02}.read_day"),
                OpKind::Read,
                format!("SELECT COUNT(*), SUM(qty) FROM churn WHERE day = {day} AND qty > 10"),
            )
        });
    }
    let logical: usize = model
        .values()
        .map(|row| 4 + 4 + 4 + 8 + row.status.len() + 4)
        .sum();
    Spec {
        workload: Workload::AcidChurn,
        seed,
        scale,
        // Default configuration: auto-compaction on at its default
        // thresholds. The results cache stays on and never hits, because
        // every read follows a write.
        conf: HiveConf::v3_1(),
        ops,
        draw: None,
        warehouse: false,
        prepare_sql: vec![],
        staging,
        main_table: "churn",
        row_bytes: logical as f64 / model.len() as f64,
        live_rows: Some(model.len() as u64),
        probe_join_sql: "SELECT c.qty, s.status FROM churn c, staging_00 s WHERE c.id = s.id"
            .into(),
        probe_agg_sql: "SELECT k, COUNT(*), SUM(amount) FROM churn GROUP BY k".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(spec: &Spec) -> Vec<String> {
        spec.ops.iter().map(|o| format!("{o:?}")).collect()
    }

    #[test]
    fn same_seed_same_operations_other_seed_other_operations() {
        for w in Workload::ALL {
            let a = Spec::build(w, 7, Scale::Tiny);
            let b = Spec::build(w, 7, Scale::Tiny);
            assert_eq!(texts(&a), texts(&b), "{}", w.name());
            assert_eq!(a.pass(3), b.pass(3));
            // The TPC-DS suite is fixed text; the seed moves its data.
            if w != Workload::TpcdsWarm {
                let c = Spec::build(w, 8, Scale::Tiny);
                assert_ne!(texts(&a), texts(&c), "{}", w.name());
            }
        }
    }

    #[test]
    fn bi_short_draws_differ_by_pass_and_favour_the_hot_set() {
        let s = Spec::build(Workload::BiShort, 2019, Scale::Full);
        assert_eq!(s.ops.len(), 400);
        let (p1, p2) = (s.pass(1), s.pass(2));
        assert_eq!(p1.len(), 1000);
        assert_ne!(p1, p2);
        let hot = &s.draw.as_ref().unwrap().hot;
        let share = p1.iter().filter(|i| hot.contains(i)).count() as f64 / 1000.0;
        assert!((0.28..0.42).contains(&share), "hot share {share}");
    }

    #[test]
    fn op_ids_are_unique() {
        for w in Workload::ALL {
            let s = Spec::build(w, 2019, Scale::Full);
            let ids: std::collections::BTreeSet<_> = s.ops.iter().map(|o| &o.id).collect();
            assert_eq!(ids.len(), s.ops.len(), "{}", w.name());
        }
    }
}
