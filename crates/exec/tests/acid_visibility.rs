//! ACID visibility, decided per row group from the footer
//! (`hive_acid::visibility`), against the row-at-a-time reference
//! (`AcidScan::read`: every identity column of every row group fetched,
//! every record asked one by one).
//!
//! Generated stores — single-transaction deltas, aborted and still-open
//! deltas, delete deltas that touch some row groups and not others,
//! compacted deltas and bases holding many WriteIds, several row groups
//! per file — are read under generated write-id lists (a lowered high
//! watermark, extra open and aborted ids, the reader's `own` id, an
//! MV-style floor). The engine scan must return exactly the reference's
//! rows, in its order, at 1/2/8 scan threads and under a seeded fault
//! plan; and a row group's class must never say *All* or *None* where
//! the per-record test disagrees.

use hive_acid::{resolve_snapshot, AcidDir, AcidScan, AcidWriter, Compactor, DirKind};
use hive_acid::{DeleteSet, RowGroupClass, Visibility, ACID_COLS};
use hive_common::{
    BucketId, ColumnVector, DataType, FaultPlan, Field, HiveConf, RecordId, Row, RowId, Schema,
    Value, VectorBatch, WriteId,
};
use hive_corc::{CorcFile, SearchArgument, WriterOptions};
use hive_dfs::{DfsPath, DistFs};
use hive_exec::{execute, ExecContext, SnapshotProvider};
use hive_llap::LlapDaemons;
use hive_metastore::{Metastore, TableBuilder, ValidWriteIdList};
use hive_optimizer::plan::{row_id_fields, LogicalPlan, ScanTable};
use proptest::prelude::*;

const TABLE: &str = "default.t";
/// Small enough that a dozen rows span several row groups.
const ROW_GROUP: usize = 4;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("s", DataType::String),
    ])
}

/// How a generated transaction ends.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Commit,
    Abort,
    LeaveOpen,
}

#[derive(Debug, Clone)]
enum Op {
    /// A single-transaction insert delta of `n` rows.
    Insert(u8, Fate),
    /// A delete delta naming some committed records (picked modulo the
    /// number there are).
    Delete(Vec<u8>, Fate),
    /// The compactor's minor / major compaction, cleaned or left beside
    /// what it covers.
    Minor {
        clean: bool,
    },
    Major {
        clean: bool,
    },
    /// A base holding every WriteId up to the ceiling, written with
    /// small row groups: many ids *and* many row groups in one file.
    Rebase,
}

fn fate() -> impl Strategy<Value = Fate> {
    prop_oneof![
        6 => Just(Fate::Commit),
        2 => Just(Fate::Abort),
        1 => Just(Fate::LeaveOpen),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1u8..14, fate()).prop_map(|(n, f)| Op::Insert(n, f)),
        4 => (proptest::collection::vec(any::<u8>(), 1..4), fate())
            .prop_map(|(picks, f)| Op::Delete(picks, f)),
        1 => any::<bool>().prop_map(|clean| Op::Minor { clean }),
        1 => any::<bool>().prop_map(|clean| Op::Major { clean }),
        2 => Just(Op::Rebase),
    ]
}

/// How the reader's list departs from the live one.
#[derive(Debug, Clone)]
struct Reader {
    lower_hwm: u64,
    open: Vec<u64>,
    aborted: Vec<u64>,
    own: Option<u64>,
    floor: Option<u64>,
}

fn reader() -> impl Strategy<Value = Reader> {
    (
        prop_oneof![3 => Just(0u64), 1 => 1u64..3],
        proptest::collection::vec(1u64..16, 0..3),
        proptest::collection::vec(1u64..16, 0..3),
        proptest::option::of(1u64..18),
        proptest::option::of(0u64..10),
    )
        .prop_map(|(lower_hwm, open, aborted, own, floor)| Reader {
            lower_hwm,
            open,
            aborted,
            own,
            floor,
        })
}

struct Store {
    fs: DistFs,
    ms: Metastore,
    dir: DfsPath,
    writer: AcidWriter,
    /// Identities of committed inserts not yet named by a committed
    /// delete: what a generated delete picks from.
    live: Vec<RecordId>,
    next_key: i32,
}

impl Store {
    fn new() -> Store {
        let fs = DistFs::new();
        let ms = Metastore::new();
        let table = TableBuilder::new("default", "t", schema()).build();
        let dir = DfsPath::new(&table.location);
        ms.create_table(table).unwrap();
        let writer = AcidWriter::new(&fs, &dir, schema()).with_options(WriterOptions {
            row_group_size: ROW_GROUP,
            ..Default::default()
        });
        Store {
            fs,
            ms,
            dir,
            writer,
            live: Vec::new(),
            next_key: 0,
        }
    }

    fn live_list(&self) -> ValidWriteIdList {
        self.ms
            .valid_write_ids(TABLE, &self.ms.valid_txn_list(), None)
    }

    fn end(&self, txn: hive_common::TxnId, fate: Fate) {
        match fate {
            Fate::Commit => self.ms.commit_txn(txn).unwrap(),
            Fate::Abort => self.ms.abort_txn(txn).unwrap(),
            Fate::LeaveOpen => {}
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(n, fate) => {
                let rows: Vec<Row> = (0..*n as i32)
                    .map(|i| {
                        let k = self.next_key + i;
                        Row::new(vec![Value::Int(k), Value::String(format!("s{}", k % 3))])
                    })
                    .collect();
                self.next_key += *n as i32;
                let txn = self.ms.open_txn();
                let wid = self.ms.allocate_write_id(txn, TABLE).unwrap();
                let batch = VectorBatch::from_rows(&schema(), &rows).unwrap();
                self.writer.write_insert_delta(wid, &batch).unwrap();
                self.end(txn, *fate);
                if matches!(fate, Fate::Commit) {
                    self.live
                        .extend((0..*n as u64).map(|r| RecordId::new(wid, BucketId(0), RowId(r))));
                }
            }
            Op::Delete(picks, fate) => {
                if self.live.is_empty() {
                    return;
                }
                let mut victims: Vec<RecordId> = picks
                    .iter()
                    .map(|&p| self.live[p as usize % self.live.len()])
                    .collect();
                victims.sort();
                victims.dedup();
                let txn = self.ms.open_txn();
                let wid = self.ms.allocate_write_id(txn, TABLE).unwrap();
                self.writer.write_delete_delta(wid, &victims).unwrap();
                self.end(txn, *fate);
                if matches!(fate, Fate::Commit) {
                    self.live.retain(|id| !victims.contains(id));
                }
            }
            Op::Minor { clean } | Op::Major { clean } => {
                let compactor = Compactor::new(&self.fs, &self.dir, schema());
                let wlist = self.live_list();
                let outcome = match op {
                    Op::Minor { .. } => compactor.minor(&wlist).unwrap(),
                    _ => compactor.major(&wlist).unwrap(),
                };
                if let (Some(outcome), true) = (outcome, *clean) {
                    compactor.clean(&outcome).unwrap();
                }
            }
            Op::Rebase => {
                let live = self.live_list();
                let ceiling = match live.min_open() {
                    Some(w) => WriteId(w.raw() - 1),
                    None => live.high_watermark,
                };
                let base = AcidDir::dir_name(DirKind::Base, ceiling, ceiling);
                if ceiling == WriteId(0) || self.fs.exists(&self.dir.child(&base)) {
                    return;
                }
                let upto = ValidWriteIdList {
                    high_watermark: ceiling,
                    ..live
                };
                let all = AcidScan::new(&self.fs, &self.dir, schema(), upto)
                    .unwrap()
                    .read(&[0, 1], &SearchArgument::new(), true)
                    .unwrap();
                self.writer
                    .write_store_with_ids(DirKind::Base, ceiling, ceiling, &all, None)
                    .unwrap();
            }
        }
    }

    fn reader_list(&self, r: &Reader) -> ValidWriteIdList {
        let mut w = self.live_list();
        w.high_watermark = WriteId(w.high_watermark.raw().saturating_sub(r.lower_hwm));
        w.open.extend(r.open.iter().map(|&x| WriteId(x)));
        w.aborted.extend(r.aborted.iter().map(|&x| WriteId(x)));
        w.aborted.extend((1..=r.floor.unwrap_or(0)).map(WriteId));
        w.own = r.own.map(WriteId);
        w
    }

    /// The reference: one record at a time.
    fn reference(&self, wlist: &ValidWriteIdList, row_ids: bool) -> Vec<String> {
        let scan = AcidScan::new(&self.fs, &self.dir, schema(), wlist.clone()).unwrap();
        let by_row = scan.read(&[0, 1], &SearchArgument::new(), row_ids).unwrap();
        let by_group = scan
            .read_row_groups(&[0, 1], &SearchArgument::new(), row_ids)
            .unwrap();
        let want = lines(&by_row);
        assert_eq!(lines(&by_group), want, "AcidScan::read_row_groups");
        want
    }

    /// The engine's scan of the table under `wlist`. A `row_ids` scan
    /// projects the identity triple first, as the reference prepends it.
    fn engine(
        &self,
        wlist: &ValidWriteIdList,
        row_ids: bool,
        threads: usize,
        llap: &LlapDaemons,
    ) -> Vec<String> {
        struct Fixed<'a>(&'a ValidWriteIdList);
        impl SnapshotProvider for Fixed<'_> {
            fn write_ids(&self, _table: &str) -> ValidWriteIdList {
                self.0.clone()
            }
        }
        let mut full = schema();
        let mut projection = vec![0, 1];
        if row_ids {
            full = full.join(&Schema::new(row_id_fields().to_vec()));
            projection = vec![2, 3, 4, 0, 1];
        }
        let plan = LogicalPlan::Scan {
            table: ScanTable {
                qualified_name: TABLE.into(),
                db: "default".into(),
                name: "t".into(),
                schema: full,
                partition_cols: vec![],
                handler: None,
                acid: true,
                is_mv: false,
                external_query: None,
                external_source: None,
                row_ids,
            },
            projection,
            filters: vec![],
            partitions: None,
            semijoin_filters: vec![],
        };
        let conf = HiveConf::v3_1().with(|c| c.parallel_threads = threads);
        let snaps = Fixed(wlist);
        let ctx = ExecContext::new(&self.fs, &self.ms, &conf, Some(llap), &snaps, None);
        lines(&execute(&plan, &ctx).unwrap().0)
    }
}

fn lines(b: &VectorBatch) -> Vec<String> {
    b.to_rows().iter().map(|r| r.to_string()).collect()
}

fn build(ops: &[Op]) -> Store {
    // HIVE_PARALLEL_THREADS overrides `parallel_threads`; scripts/verify.sh
    // sets it to run this file at each width, and the explicit widths
    // below cover the rest when it is unset.
    let mut store = Store::new();
    ops.iter().for_each(|op| store.apply(op));
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_scan_returns_the_row_at_a_time_readers_rows(
        ops in proptest::collection::vec(op(), 1..14),
        r in reader(),
    ) {
        let store = build(&ops);
        let wlist = store.reader_list(&r);
        for row_ids in [false, true] {
            let want = store.reference(&wlist, row_ids);
            for threads in [1, 2, 8] {
                // A cold cache per width: every chunk goes to the DFS.
                let llap = LlapDaemons::new(2, 2, 8 << 20, 0.5);
                let got = store.engine(&wlist, row_ids, threads, &llap);
                prop_assert_eq!(&got, &want, "row_ids={}, {} threads, {:?}", row_ids, threads, wlist);
                // And again over the now-resident chunks.
                let again = store.engine(&wlist, row_ids, threads, &llap);
                prop_assert_eq!(&again, &want, "warm, row_ids={}, {} threads", row_ids, threads);
            }
        }
        // Transient read errors, slow reads and corrupt cached chunks are
        // retried or reloaded inside the scan; the rows do not move.
        let want = store.reference(&wlist, true);
        store.fs.fault().set_plan(FaultPlan::none().with(|p| {
            p.seed = 0xAC1D_2019;
            p.dfs_read_error_prob = 0.05;
            p.dfs_slow_prob = 0.1;
            p.dfs_slow_ms = 2.0;
            p.cache_corruption_prob = 0.2;
        }));
        let llap = LlapDaemons::new(2, 2, 8 << 20, 0.5);
        for pass in 0..2 {
            let got = store.engine(&wlist, true, 2, &llap);
            prop_assert_eq!(&got, &want, "faulted pass {}", pass);
        }
    }

    #[test]
    fn a_row_groups_class_never_contradicts_the_per_record_test(
        ops in proptest::collection::vec(op(), 1..14),
        r in reader(),
    ) {
        let store = build(&ops);
        let wlist = store.reader_list(&r);
        let snap = resolve_snapshot(&store.fs, &store.dir, &wlist);
        let deletes = DeleteSet::load(&store.fs, &snap, &wlist).unwrap();
        let vis = Visibility::new(&wlist, &deletes);
        for dir in snap.base.iter().chain(&snap.insert_deltas) {
            for (path, _) in store.fs.list_files_recursive(&dir.path) {
                let file = CorcFile::open(&store.fs, &path).unwrap();
                for rg in 0..file.row_group_count() {
                    let ids: Vec<ColumnVector> = (0..ACID_COLS)
                        .map(|c| file.read_column_chunk(rg, c).unwrap())
                        .collect();
                    let id = |c: usize, i: usize| match ids[c].get(i) {
                        Value::BigInt(v) => v as u64,
                        other => panic!("identity value {other:?}"),
                    };
                    let rows = file.row_group_rows(rg) as usize;
                    let want: Vec<u32> = (0..rows)
                        .filter(|&i| {
                            let rid = RecordId::new(
                                WriteId(id(0, i)),
                                BucketId(id(1, i)),
                                RowId(id(2, i)),
                            );
                            wlist.is_visible(rid.write_id) && !deletes.contains(&rid)
                        })
                        .map(|i| i as u32)
                        .collect();
                    let class = vis.classify_row_group(&file, rg);
                    let at = format!("{path} rg {rg}: {class:?} under {wlist:?}");
                    match class {
                        RowGroupClass::All => prop_assert_eq!(want.len(), rows, "{}", at),
                        RowGroupClass::None => prop_assert!(want.is_empty(), "{}", at),
                        RowGroupClass::PerRow { tombstones } => {
                            // Only the columns the class asks for.
                            let needs = class.needs();
                            let got = vis
                                .visible_rows(
                                    rows,
                                    tombstones,
                                    std::array::from_fn(|c| needs[c].then_some(&ids[c])),
                                )
                                .unwrap()
                                .unwrap_or_else(|| (0..rows as u32).collect());
                            prop_assert_eq!(got, want, "{}", at);
                        }
                    }
                }
            }
        }
    }
}
