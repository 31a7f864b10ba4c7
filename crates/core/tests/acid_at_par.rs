//! "ACID reads at par" (paper §3.2/§8), said by counter instead of by
//! clock: a row group the snapshot sees whole is read exactly like a
//! non-ACID one — the same ranged DFS reads, no identity chunk fetched
//! or cached — and one it sees nothing of is not read at all
//! (`hive_acid::visibility`). Each test fails at the commit before that
//! was so, but the `row_ids` one, which guards the other direction: a
//! DML scan still gets the identity columns it projects.

use hive_acid::ACID_COLS;
use hive_common::{ColumnVector, DataType, Field, HiveConf, HiveError, Row, Schema, Value};
use hive_common::{Result, VectorBatch};
use hive_corc::CorcFile;
use hive_core::{HiveServer, Session};
use hive_dfs::DfsPath;
use hive_llap::cache::ChunkKey;

/// Three row groups at the writer's default row-group size.
const ROWS: usize = 25_000;

fn server() -> HiveServer {
    HiveServer::new(HiveConf::v3_1().with(|c| {
        c.results_cache = false;
        c.auto_compaction = false;
    }))
}

fn rows() -> Vec<Row> {
    (0..ROWS as i64)
        .map(|i| Row::new(vec![Value::BigInt(i), Value::BigInt(i % 997)]))
        .collect()
}

fn acid_table(sess: &Session, name: &str) {
    sess.execute(&format!("CREATE TABLE {name} (k BIGINT, c BIGINT)"))
        .unwrap();
    sess.bulk_insert(name, rows()).unwrap();
}

/// The same rows as one plain corc file under an external table.
fn plain_table(server: &HiveServer, sess: &Session, name: &str) {
    sess.execute(&format!(
        "CREATE EXTERNAL TABLE {name} (k BIGINT, c BIGINT)"
    ))
    .unwrap();
    let schema = Schema::new(vec![
        Field::new("k", DataType::BigInt),
        Field::new("c", DataType::BigInt),
    ]);
    let batch = VectorBatch::from_rows(&schema, &rows()).unwrap();
    let bytes = hive_corc::writer::write_batch_to_bytes(&batch, Default::default()).unwrap();
    let path = DfsPath::new(format!("/warehouse/default/{name}/data_0"));
    server.fs().create(&path, bytes).unwrap();
}

/// Ranged DFS reads `sql` issues against a cold LLAP cache, and its rows.
fn cold_reads(server: &HiveServer, sess: &Session, sql: &str) -> (u64, Vec<String>) {
    server.llap().cache().clear();
    let before = server.fs().stats().snapshot();
    let rows = sess.execute(sql).unwrap().display_rows();
    (server.fs().stats().snapshot().since(&before).reads, rows)
}

/// The `(row group, column)` chunks of the data files under `table`'s
/// directory that are resident in the LLAP cache.
fn resident_chunks(server: &HiveServer, table: &str) -> Vec<(String, usize, usize)> {
    let dir = DfsPath::new(format!("/warehouse/default/{table}"));
    let mut out = Vec::new();
    for (path, _) in server.fs().list_files_recursive(&dir) {
        let file = CorcFile::open(server.fs(), &path).unwrap();
        for rg in 0..file.row_group_count() {
            for column in 0..file.schema().len() {
                let key = ChunkKey {
                    file: file.file_id(),
                    column,
                    row_group: rg,
                };
                // A resident chunk is handed out; an absent one asks
                // the loader, which declines.
                let probe: Result<std::sync::Arc<ColumnVector>> = server
                    .llap()
                    .cache()
                    .get_or_load(key, || Err(HiveError::Execution("absent".into())));
                if probe.is_ok() {
                    out.push((path.to_string(), rg, column));
                }
            }
        }
    }
    out
}

#[test]
fn a_wholly_visible_acid_table_reads_what_a_plain_table_reads() {
    let server = server();
    let sess = server.session();
    plain_table(&server, &sess, "t_plain");
    acid_table(&sess, "t_insert");
    acid_table(&sess, "t_compacted");
    sess.execute("ALTER TABLE t_compacted COMPACT 'major'")
        .unwrap();

    let q = |t: &str| format!("SELECT SUM(c) FROM {t}");
    let (plain_reads, plain_rows) = cold_reads(&server, &sess, &q("t_plain"));
    assert!(plain_reads >= 3, "three row groups, one column each");
    for t in ["t_insert", "t_compacted"] {
        let (reads, rows) = cold_reads(&server, &sess, &q(t));
        assert_eq!(rows, plain_rows, "{t}");
        assert_eq!(
            reads, plain_reads,
            "{t}: ranged DFS reads against the plain table's"
        );
        let resident = resident_chunks(&server, t);
        assert_eq!(
            resident.len(),
            3,
            "{t}: one data chunk a row group: {resident:?}"
        );
        assert!(
            resident.iter().all(|(_, _, column)| *column >= ACID_COLS),
            "{t}: an identity chunk is resident: {resident:?}"
        );
    }
}

#[test]
fn a_row_ids_scan_still_surfaces_all_three_identity_columns() {
    let server = server();
    let sess = server.session();
    acid_table(&sess, "t");
    // UPDATE reads the rows it rewrites through a `row_ids` scan of a
    // table whose every row group is wholly visible.
    server.llap().cache().clear();
    let r = sess.execute("UPDATE t SET c = -1 WHERE k < 3").unwrap();
    assert_eq!(r.affected_rows, 3);
    let resident = resident_chunks(&server, "t");
    for id_col in 0..ACID_COLS {
        assert!(
            resident
                .iter()
                .any(|(path, _, column)| path.contains("/delta_1_1/") && *column == id_col),
            "identity column {id_col} of the scanned delta was not fetched: {resident:?}"
        );
    }
    // The tombstones name the right records.
    let left = sess
        .execute("SELECT COUNT(*), SUM(c) FROM t WHERE k < 5")
        .unwrap();
    // Three rows at -1, then k = 3 and k = 4 as inserted.
    assert_eq!(left.display_rows(), vec!["5\t4"]);
}

#[test]
fn a_delete_costs_identity_chunks_only_in_the_row_groups_it_touches() {
    let server = server();
    let sess = server.session();
    acid_table(&sess, "t");
    // One record of the second row group.
    sess.execute("DELETE FROM t WHERE k = 12345").unwrap();
    server.llap().cache().clear();
    let r = sess.execute("SELECT COUNT(*), SUM(c) FROM t").unwrap();
    let want_sum: i64 = (0..ROWS as i64).map(|i| i % 997).sum::<i64>() - 12345 % 997;
    assert_eq!(r.display_rows(), vec![format!("{}\t{want_sum}", ROWS - 1)]);
    let identity: Vec<(usize, usize)> = resident_chunks(&server, "t")
        .into_iter()
        .filter(|(path, _, column)| path.contains("/delta_1_1/") && *column < ACID_COLS)
        .map(|(_, rg, column)| (rg, column))
        .collect();
    assert_eq!(identity, vec![(1, 0), (1, 1), (1, 2)]);
}

#[test]
fn an_incremental_rebuild_reads_nothing_at_or_below_its_floor() {
    let server = server();
    let sess = server.session();
    acid_table(&sess, "t");
    sess.execute("CREATE MATERIALIZED VIEW mv AS SELECT k, c FROM t WHERE c = 7")
        .unwrap();
    let before: usize = sess
        .execute("SELECT COUNT(*) FROM mv")
        .unwrap()
        .display_rows()[0]
        .parse()
        .unwrap();
    sess.execute("INSERT INTO t VALUES (1000007, 7), (1000008, 8)")
        .unwrap();
    server.llap().cache().clear();
    let msg = sess
        .execute("ALTER MATERIALIZED VIEW mv REBUILD")
        .unwrap()
        .message
        .unwrap_or_default();
    assert!(msg.contains("incremental (+1 rows)"), "{msg}");
    // Everything the view's snapshot had already seen stayed on disk.
    let resident = resident_chunks(&server, "t");
    assert!(!resident.is_empty(), "the new delta was read");
    assert!(
        resident
            .iter()
            .all(|(path, _, _)| path.contains("/delta_2_2/")),
        "a chunk at or below the floor was read: {resident:?}"
    );
    let after = sess.execute("SELECT COUNT(*) FROM mv").unwrap();
    assert_eq!(after.display_rows(), vec![(before + 1).to_string()]);
}
