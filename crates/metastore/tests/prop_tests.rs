//! Property tests on metastore invariants: transaction-manager snapshot
//! consistency under random commit/abort interleavings, the
//! `ValidWriteIdList` visibility algebra, and HyperLogLog accuracy.

use hive_common::{TxnId, Value, WriteId};
use hive_metastore::{HyperLogLog, TxnManager, TxnState, ValidWriteIdList};
use proptest::prelude::*;
use std::collections::BTreeSet;

const TABLE: &str = "db.t";

/// Random history: each step opens a txn that writes TABLE, then
/// commits (true) or aborts (false); interleaving is simulated by
/// deferring some decisions.
#[derive(Debug, Clone)]
struct Step {
    commit: bool,
    /// Decide this many previously-undecided transactions first.
    decide_backlog: u8,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (any::<bool>(), 0u8..3).prop_map(|(commit, decide_backlog)| Step {
            commit,
            decide_backlog,
        }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A snapshot taken at any point sees exactly the WriteIds of
    /// transactions committed before it — never open or aborted ones.
    #[test]
    fn snapshot_sees_exactly_committed_writes(history in steps()) {
        let mut tm = TxnManager::new();
        // (txn, wid, decided-as-commit)
        let mut pending: Vec<(TxnId, WriteId, bool)> = Vec::new();
        let mut committed: BTreeSet<WriteId> = BTreeSet::new();

        for step in &history {
            for _ in 0..step.decide_backlog {
                if let Some((txn, wid, commit)) = pending.pop() {
                    if commit {
                        tm.commit(txn).unwrap();
                        committed.insert(wid);
                    } else {
                        tm.abort(txn).unwrap();
                    }
                }
            }
            let txn = tm.open();
            let wid = tm.allocate_write_id(txn, TABLE).unwrap();
            pending.push((txn, wid, step.commit));

            // Snapshot mid-history: visibility must equal the committed set.
            let snap = tm.valid_txn_list();
            let wlist = tm.valid_write_ids(TABLE, &snap, None);
            for w in 1..=tm.table_write_hwm(TABLE).0 {
                let wid = WriteId(w);
                prop_assert_eq!(
                    wlist.is_visible(wid),
                    committed.contains(&wid),
                    "wid {} at hwm {}", w, wlist.high_watermark.0
                );
            }
        }
    }

    /// `all_visible(lo, hi)` ⇔ every id in the range `is_visible`, and
    /// `none_visible(lo, hi)` ⇔ no id in the range `is_visible` — on
    /// every subrange, past the watermark too, with and without the
    /// reader's own id (which may sit in `open`, above the watermark, or
    /// both), and under an MV-style floor (a dense aborted prefix). And
    /// `is_valid_base(n)` is monotone: once a base is invalid at n,
    /// every higher base is invalid too (same open set).
    #[test]
    fn write_id_list_algebra(
        hwm in 1u64..40,
        open in proptest::collection::btree_set(1u64..40, 0..6),
        aborted in proptest::collection::btree_set(1u64..40, 0..6),
        own in proptest::option::of(1u64..44),
        floor in 0u64..20,
    ) {
        let mut list = ValidWriteIdList {
            table: TABLE.to_string(),
            high_watermark: WriteId(hwm),
            open: open.iter().map(|&w| WriteId(w)).collect(),
            aborted: aborted.iter().map(|&w| WriteId(w)).collect(),
            own: own.map(WriteId),
        };
        list.aborted.extend((1..=floor).map(WriteId));
        for lo in 1..=hwm + 4 {
            for hi in lo..=hwm + 4 {
                let all = (lo..=hi).all(|w| list.is_visible(WriteId(w)));
                let any = (lo..=hi).any(|w| list.is_visible(WriteId(w)));
                prop_assert_eq!(list.all_visible(WriteId(lo), WriteId(hi)), all,
                    "all_visible [{}, {}]", lo, hi);
                prop_assert_eq!(list.none_visible(WriteId(lo), WriteId(hi)), !any,
                    "none_visible [{}, {}]", lo, hi);
            }
        }
        // min_open is the smallest open id.
        prop_assert_eq!(
            list.min_open(),
            open.iter().next().map(|&w| WriteId(w))
        );
        // Base validity: valid iff no open id at or below it.
        for n in 1..=hwm {
            let want = open.iter().all(|&o| o > n);
            prop_assert_eq!(list.is_valid_base(WriteId(n)), want, "base {}", n);
        }
    }

    /// The reader's own uncommitted write is always visible to itself.
    #[test]
    fn own_writes_always_visible(decided in steps()) {
        let mut tm = TxnManager::new();
        for step in &decided {
            let txn = tm.open();
            let wid = tm.allocate_write_id(txn, TABLE).unwrap();
            let snap = tm.valid_txn_list();
            let wlist = tm.valid_write_ids(TABLE, &snap, Some(txn));
            prop_assert!(wlist.is_visible(wid), "own wid {} invisible", wid.0);
            if step.commit {
                tm.commit(txn).unwrap();
            } else {
                tm.abort(txn).unwrap();
            }
            prop_assert_eq!(
                tm.state(txn),
                Some(if step.commit { TxnState::Committed } else { TxnState::Aborted })
            );
        }
    }

    /// HyperLogLog estimates distinct counts within its theoretical
    /// error envelope (p=12 → ~1.6% standard error; allow 6 sigma).
    #[test]
    fn hll_estimates_within_error_bounds(
        n in 1usize..20_000,
        seed in any::<u64>(),
    ) {
        let mut hll = HyperLogLog::new();
        for i in 0..n {
            // Distinct values derived from the seed; duplicates on
            // purpose every third insert must not inflate the count.
            let v = seed.wrapping_add(i as u64);
            hll.add(&Value::BigInt(v as i64));
            if i % 3 == 0 {
                hll.add(&Value::BigInt(v as i64));
            }
        }
        let est = hll.estimate() as f64;
        let err = (est - n as f64).abs() / n as f64;
        prop_assert!(err < 0.10, "n={} est={} err={:.3}", n, est, err);
    }

    /// Merging two sketches equals sketching the union.
    #[test]
    fn hll_merge_equals_union(
        a in proptest::collection::vec(any::<i64>(), 0..2000),
        b in proptest::collection::vec(any::<i64>(), 0..2000),
    ) {
        let mut ha = HyperLogLog::new();
        let mut hb = HyperLogLog::new();
        let mut hu = HyperLogLog::new();
        for v in &a {
            ha.add(&Value::BigInt(*v));
            hu.add(&Value::BigInt(*v));
        }
        for v in &b {
            hb.add(&Value::BigInt(*v));
            hu.add(&Value::BigInt(*v));
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.estimate(), hu.estimate());
    }
}
