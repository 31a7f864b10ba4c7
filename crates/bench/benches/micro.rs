//! Criterion micro-benchmarks over the individual subsystems: the corc
//! file format, the LRFU cache, the hash join and aggregation kernels,
//! the SQL parser, and the optimizer pipeline. These measure *real*
//! wall-clock time (unlike the figure harnesses, which report the
//! simulated cluster model).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hive_common::{DataType, Field, HiveConf, Row, Schema, Value, VectorBatch};
use hive_corc::{writer::write_batch_to_bytes, ColumnPredicate, SearchArgument, WriterOptions};
use hive_exec::{aggregate::execute_aggregate, join::execute_join};
use hive_llap::cache::{ChunkKey, LlapCache};
use hive_metastore::{Metastore, TableBuilder, TableStats};
use hive_optimizer::plan::JoinType;
use hive_optimizer::{
    AggExpr, AggFunc, Analyzer, MetastoreCatalog, Optimizer, OptimizerContext, ScalarExpr,
};

fn sales_batch(n: usize) -> VectorBatch {
    let schema = Schema::new(vec![
        Field::new("k", DataType::BigInt),
        Field::new("cat", DataType::String),
        Field::new("price", DataType::Decimal(7, 2)),
    ]);
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::BigInt(i as i64),
                Value::String(format!("cat{}", i % 16)),
                Value::Decimal((i % 10_000) as i128, 2),
            ])
        })
        .collect();
    VectorBatch::from_rows(&schema, &rows).unwrap()
}

/// The output schema of `GROUP BY groups` with `aggs` over `input`.
fn aggregate_schema(input: &Schema, groups: &[ScalarExpr], aggs: &[AggExpr]) -> Schema {
    hive_optimizer::plan::LogicalPlan::Aggregate {
        input: std::sync::Arc::new(hive_optimizer::plan::LogicalPlan::Values {
            schema: input.clone(),
            rows: vec![],
        }),
        group_exprs: groups.to_vec(),
        grouping_sets: None,
        aggs: aggs.to_vec(),
    }
    .schema()
}

fn bench_corc(c: &mut Criterion) {
    let batch = sales_batch(50_000);
    c.bench_function("corc/write_50k_rows", |b| {
        b.iter(|| write_batch_to_bytes(&batch, WriterOptions::default()).unwrap())
    });
    let fs = hive_dfs::DistFs::new();
    let path = hive_dfs::DfsPath::new("/bench/f0");
    fs.create(
        &path,
        write_batch_to_bytes(&batch, WriterOptions::default()).unwrap(),
    )
    .unwrap();
    let file = hive_corc::CorcFile::open(&fs, &path).unwrap();
    c.bench_function("corc/read_all_50k_rows", |b| {
        b.iter(|| file.read_all().unwrap())
    });
    c.bench_function("corc/sarg_rowgroup_selection", |b| {
        let sarg = SearchArgument::with(vec![ColumnPredicate::Between(
            0,
            Value::BigInt(20_000),
            Value::BigInt(21_000),
        )]);
        b.iter(|| file.selected_row_groups(&sarg))
    });
}

fn bench_llap_cache(c: &mut Criterion) {
    let cache = LlapCache::new(64 << 20, 0.5);
    let col = hive_common::ColumnVector::BigInt((0..10_000).collect(), None);
    for i in 0..64u64 {
        let col = col.clone();
        cache
            .get_or_load(
                ChunkKey {
                    file: hive_common::FileId(i),
                    column: 0,
                    row_group: 0,
                },
                move || Ok(col),
            )
            .unwrap();
    }
    c.bench_function("llap/cache_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 64;
            cache
                .get_or_load(
                    ChunkKey {
                        file: hive_common::FileId(i),
                        column: 0,
                        row_group: 0,
                    },
                    || unreachable!("must hit"),
                )
                .unwrap()
        })
    });
}

fn bench_exec_kernels(c: &mut Criterion) {
    let left = sales_batch(50_000);
    let right = sales_batch(2_000);
    let out_schema = left.schema().join(right.schema());
    c.bench_function("exec/hash_join_50k_x_2k", |b| {
        b.iter(|| {
            execute_join(
                &left,
                &right,
                JoinType::Inner,
                &[(ScalarExpr::Column(0), ScalarExpr::Column(0))],
                &None,
                &out_schema,
                usize::MAX,
            )
            .unwrap()
        })
    });
    let agg_schema = {
        let plan = hive_optimizer::plan::LogicalPlan::Aggregate {
            input: std::sync::Arc::new(hive_optimizer::plan::LogicalPlan::Values {
                schema: left.schema().clone(),
                rows: vec![],
            }),
            group_exprs: vec![ScalarExpr::Column(1)],
            grouping_sets: None,
            aggs: vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::Column(2)),
                distinct: false,
            }],
        };
        plan.schema()
    };
    c.bench_function("exec/hash_aggregate_50k", |b| {
        b.iter(|| {
            execute_aggregate(
                &left,
                &[ScalarExpr::Column(1)],
                &None,
                &[AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::Column(2)),
                    distinct: false,
                }],
                &agg_schema,
            )
            .unwrap()
        })
    });
}

fn bench_frontend(c: &mut Criterion) {
    let sql = "SELECT i_category, SUM(ss_sales_price) AS s
               FROM store_sales, item, date_dim
               WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
                 AND d_year = 2000 AND i_category IN ('Sports', 'Books')
               GROUP BY i_category HAVING SUM(ss_sales_price) > 100
               ORDER BY s DESC LIMIT 10";
    c.bench_function("sql/parse_star_join", |b| {
        b.iter(|| hive_sql::parse_sql(sql).unwrap())
    });

    // Analyzer + optimizer over a realistic catalog.
    let ms = Metastore::new();
    ms.create_table(
        TableBuilder::new(
            "default",
            "store_sales",
            Schema::new(vec![
                Field::new("ss_item_sk", DataType::Int),
                Field::new("ss_sold_date_sk", DataType::Int),
                Field::new("ss_sales_price", DataType::Decimal(7, 2)),
            ]),
        )
        .build(),
    )
    .unwrap();
    ms.create_table(
        TableBuilder::new(
            "default",
            "item",
            Schema::new(vec![
                Field::new("i_item_sk", DataType::Int),
                Field::new("i_category", DataType::String),
            ]),
        )
        .build(),
    )
    .unwrap();
    ms.create_table(
        TableBuilder::new(
            "default",
            "date_dim",
            Schema::new(vec![
                Field::new("d_date_sk", DataType::Int),
                Field::new("d_year", DataType::Int),
            ]),
        )
        .build(),
    )
    .unwrap();
    let mut stats = TableStats::new(3);
    stats.row_count = 1_000_000;
    ms.set_table_stats("default.store_sales", stats);
    let conf = HiveConf::v3_1();
    let ast = match hive_sql::parse_sql(sql).unwrap() {
        hive_sql::Statement::Query(q) => q,
        _ => unreachable!(),
    };
    c.bench_function("optimizer/analyze_and_optimize_star_join", |b| {
        b.iter_batched(
            || ast.clone(),
            |q| {
                let cat = MetastoreCatalog::new(ms.clone(), "default");
                let plan = Analyzer::new(&cat).analyze_query(&q).unwrap();
                let ctx = OptimizerContext {
                    metastore: &ms,
                    conf: &conf,
                    usable_views: vec![],
                    feedback: Default::default(),
                };
                Optimizer::optimize(plan, &ctx).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

/// `Optimizer::optimize` over a loaded warehouse — real statistics, so
/// the cost-based stages read histograms and sketches: a `bi_short`-style
/// filter join, `bi_short`'s two-table customer lookup and TPC-DS q27.
/// Prints µs per planning (the criterion
/// stand-in only prints milliseconds); recorded in EXPERIMENTS.md, not
/// gated on time.
fn bench_optimize_loaded(_c: &mut Criterion) {
    use hive_benchdata::tpcds::{self, TpcdsScale};
    const PLANNINGS: u32 = 500;
    let server = hive_core::HiveServer::new(HiveConf::v3_1());
    tpcds::load(&server, TpcdsScale::bench(), 2019).unwrap();
    let filter_join = format!(
        "SELECT i_brand, SUM(ss_sales_price) AS sales FROM store_sales, item \
         WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = {} AND i_category = 'Books' \
         GROUP BY i_brand ORDER BY sales DESC, i_brand LIMIT 10",
        tpcds::base_date_sk() + 3
    );
    let q27 = tpcds::queries()
        .into_iter()
        .find(|q| q.id == "q27")
        .expect("q27 is in the curated suite")
        .sql;
    let conf = server.conf();
    let ms = server.metastore();
    let customer_lookup = "SELECT c_first_name, c_last_name, ca_city, ca_state \
         FROM customer, customer_address \
         WHERE c_current_addr_sk = ca_address_sk AND c_customer_sk = 42"
        .to_string();
    for (name, sql) in [
        ("bi_filter_join", filter_join),
        ("bi_customer_lookup", customer_lookup),
        ("tpcds_q27", q27),
    ] {
        let hive_sql::Statement::Query(q) = hive_sql::parse_sql(&sql).unwrap() else {
            unreachable!()
        };
        let cat = MetastoreCatalog::new(ms.clone(), "default");
        let analyzed = Analyzer::new(&cat).analyze_query(&q).unwrap();
        let ctx = OptimizerContext {
            metastore: ms,
            conf: &conf,
            usable_views: vec![],
            feedback: Default::default(),
        };
        // First planning derives the column summaries; time warm ones.
        Optimizer::optimize(analyzed.clone(), &ctx).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..PLANNINGS {
            std::hint::black_box(Optimizer::optimize(analyzed.clone(), &ctx).unwrap());
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / PLANNINGS as f64;
        println!("bench: optimize/{name}");
        println!("    {us:.1} us/optimize ({PLANNINGS} plannings)");
    }
}

/// Time `calls` runs of `f` and print the mean as `bench: <name>` /
/// `<ns> ns/<unit>`, with `units` units of work per call.
fn report_ns(name: &str, unit: &str, calls: u32, units: f64, mut f: impl FnMut()) {
    f(); // warm
    let start = std::time::Instant::now();
    for _ in 0..calls {
        f();
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / (calls as f64 * units);
    println!("bench: {name}");
    println!("    {ns:.1} ns/{unit} ({calls} calls)");
}

/// The cold read path, one layer at a time: decoding one 5 000-value
/// chunk per column type (and an INT chunk that is one literal run of
/// 20-bit values), an LRFU hit and an evicting miss at two cache
/// populations, the key-less 13-aggregate sweep over 300 000 rows as one
/// part and as sixty, and one key-less SUM, MIN and MAX over an INT and
/// a DECIMAL(7,2) column under every row and under half of them. Prints
/// ns per value / per call (the criterion stand-in only prints
/// milliseconds); recorded in EXPERIMENTS.md, not gated on time.
fn bench_cold_read_path(_c: &mut Criterion) {
    use hive_common::{ColumnVector, FileId, SelBatch};
    const ROWS: usize = 5000;

    // corc: one chunk, fetched once, decoded repeatedly.
    let words: Vec<String> = (0..40).map(|w| format!("word-{w:03}")).collect();
    let columns: [(&str, DataType, ColumnVector); 4] = [
        (
            "int",
            DataType::Int,
            ColumnVector::Int((0..ROWS).map(|i| (i * 7919 % 1000) as i32).collect(), None),
        ),
        (
            "bigint",
            DataType::BigInt,
            ColumnVector::BigInt((0..ROWS).map(|i| i as i64 * 104_729).collect(), None),
        ),
        (
            "decimal",
            DataType::Decimal(7, 2),
            ColumnVector::Decimal(
                (0..ROWS).map(|i| (i * 31 % 99_999) as i128).collect(),
                2,
                None,
            ),
        ),
        (
            "dict",
            DataType::String,
            ColumnVector::Str(
                (0..ROWS).map(|i| words[i * 13 % 40].clone()).collect(),
                None,
            ),
        ),
    ];
    let fs = hive_dfs::DistFs::new();
    for (name, dt, col) in columns {
        let schema = Schema::new(vec![Field::new("c", dt)]);
        let batch = VectorBatch::new(schema, vec![col]).unwrap();
        let path = hive_dfs::DfsPath::new(format!("/bench/decode_{name}"));
        fs.create(
            &path,
            write_batch_to_bytes(&batch, WriterOptions::default()).unwrap(),
        )
        .unwrap();
        let file = hive_corc::CorcFile::open(&fs, &path).unwrap();
        let (offset, len) = file.chunk_range(0, 0).unwrap();
        let bytes = fs.read_range(&path, offset, len).unwrap();
        report_ns(
            &format!("corc/decode_{name}_{ROWS}"),
            "value",
            2000,
            ROWS as f64,
            || {
                let col = file.decode_column_chunk_encoded(bytes.clone(), 0, 0);
                std::hint::black_box(col.unwrap().len());
            },
        );
    }

    // corc: an INT chunk with no repeats at all — every value a literal.
    {
        let vals = (0..ROWS).map(|i| (i as i64 * 2_654_435_761 % 1_000_003) as i32);
        let schema = Schema::new(vec![Field::new("c", DataType::Int)]);
        let col = ColumnVector::Int(vals.collect(), None);
        let batch = VectorBatch::new(schema, vec![col]).unwrap();
        let path = hive_dfs::DfsPath::new("/bench/decode_int_literal");
        let bytes = write_batch_to_bytes(&batch, WriterOptions::default()).unwrap();
        fs.create(&path, bytes).unwrap();
        let file = hive_corc::CorcFile::open(&fs, &path).unwrap();
        let (offset, len) = file.chunk_range(0, 0).unwrap();
        let bytes = fs.read_range(&path, offset, len).unwrap();
        report_ns(
            "corc/decode_int_literal_5k",
            "value",
            20_000,
            ROWS as f64,
            || {
                let col = file.decode_column_chunk_encoded(bytes.clone(), 0, 0);
                std::hint::black_box(col.unwrap().len());
            },
        );
    }

    // llap: every chunk of one store_sales file (a `scan_cold`
    // partition: 5 000 rows) through the miss path of a cache a quarter
    // the size of the file's decoded chunks, so each miss evicts and
    // decodes into the spares evictions leave — the warehouse's own
    // widths and churn.
    {
        use hive_benchdata::tpcds::{self, TpcdsScale};
        let server = hive_core::HiveServer::new(HiveConf::v3_1());
        let scale = TpcdsScale {
            days: 2,
            sales_per_day: 5000,
            ..TpcdsScale::tiny()
        };
        tpcds::load(&server, scale, 2019).unwrap();
        let fs = server.fs();
        let table = hive_dfs::DfsPath::new("/warehouse/default/store_sales");
        let (path, _) = (fs.list_files_recursive(&table).into_iter())
            .max_by_key(|(_, meta)| meta.len)
            .unwrap();
        let file = hive_corc::CorcFile::open(fs, &path).unwrap();
        let chunks: Vec<(usize, usize)> = (0..file.row_group_count())
            .flat_map(|rg| (0..file.schema().len()).map(move |c| (rg, c)))
            .collect();
        let values: u64 = chunks.iter().map(|&(rg, _)| file.row_group_rows(rg)).sum();
        let decoded: usize = (chunks.iter())
            .map(|&(rg, c)| {
                file.read_column_chunk_encoded(rg, c)
                    .unwrap()
                    .approx_bytes()
            })
            .sum();
        let cache = LlapCache::new(decoded / 4, 0.5);
        let mut next = 0u64;
        let mut pass = || {
            for &(rg, column) in &chunks {
                next += 1;
                let key = ChunkKey {
                    file: FileId(next),
                    column,
                    row_group: rg,
                };
                let load = || file.read_column_chunk_encoded_with(rg, column, Some(cache.spares()));
                cache.get_or_load(key, load).unwrap();
            }
        };
        pass(); // fills the cache
        report_ns(
            "llap/miss_decode_store_sales_file",
            "value",
            200,
            values as f64,
            pass,
        );
    }

    // llap: a hit, and a miss that evicts, with the cache full.
    let chunk = ColumnVector::BigInt(vec![7; 100], None);
    let key = |file: u64| ChunkKey {
        file: FileId(file),
        column: 0,
        row_group: 0,
    };
    for entries in [256u64, 4096] {
        let cache = LlapCache::new(entries as usize * chunk.approx_bytes(), 0.5);
        for f in 0..entries {
            cache.get_or_load(key(f), || Ok(chunk.clone())).unwrap();
        }
        let mut next = entries;
        report_ns(
            &format!("llap/miss_evict_at_{entries}_entries"),
            "call",
            20_000,
            1.0,
            || {
                next += 1;
                cache.get_or_load(key(next), || Ok(chunk.clone())).unwrap();
            },
        );
        assert_eq!(cache.len(), entries as usize);
        if entries == 4096 {
            let resident = next;
            report_ns("llap/hit", "call", 200_000, 1.0, || {
                let hit = cache.get_or_load(key(resident), || unreachable!("must hit"));
                std::hint::black_box(hit.unwrap().len());
            });
        }
    }

    // aggregate: `scan_cold`'s sweep_all shape over its parts.
    const SWEEP_ROWS: usize = 300_000;
    let mut fields = Vec::new();
    for c in 0..13 {
        let dt = if c < 8 {
            DataType::Int
        } else {
            DataType::Decimal(7, 2)
        };
        fields.push(Field::new(format!("c{c}"), dt));
    }
    let schema = Schema::new(fields);
    let part = |lo: usize, rows: usize| {
        let cols = (0..13)
            .map(|c| {
                let v = (lo..lo + rows).map(|i| (i * (c + 3) * 7919) % 100_000);
                if c < 8 {
                    ColumnVector::Int(v.map(|x| x as i32).collect(), None)
                } else {
                    ColumnVector::Decimal(v.map(|x| x as i128).collect(), 2, None)
                }
            })
            .collect();
        SelBatch::from_batch(VectorBatch::new(schema.clone(), cols).unwrap())
    };
    let aggs: Vec<AggExpr> = (0..13)
        .map(|c| AggExpr {
            func: [AggFunc::Sum, AggFunc::Min, AggFunc::Max][c % 3],
            arg: Some(ScalarExpr::Column(c)),
            distinct: false,
        })
        .collect();
    let out_schema = aggregate_schema(&schema, &[], &aggs);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    for nparts in [1, 60] {
        let rows = SWEEP_ROWS / nparts;
        let parts: Vec<SelBatch> = (0..nparts).map(|p| part(p * rows, rows)).collect();
        report_ns(
            &format!("aggregate/keyless_13cols_300k_{nparts}_parts"),
            &format!("value ({workers} workers)"),
            20,
            (SWEEP_ROWS * 13) as f64,
            || {
                let mut pc = hive_exec::pir::PirCounters::default();
                let out = hive_exec::aggregate::execute_aggregate_parts(
                    &parts,
                    &[],
                    &None,
                    &aggs,
                    &out_schema,
                    workers,
                    None,
                    Some(&mut pc),
                )
                .map(|(batch, _)| batch);
                std::hint::black_box(out.unwrap().num_rows());
            },
        );
    }
}

/// One key-less SUM, MIN and MAX over a 300 000-row column, as one part
/// with one worker: the fold and nothing else of the operator moves.
fn bench_keyless_fold(_c: &mut Criterion) {
    use hive_common::{ColumnVector, SelBatch, SelVec};
    const ROWS: usize = 300_000;
    let vals = || (0..ROWS).map(|i| (i * 7919) % 100_000);
    let columns = [
        (
            "int",
            DataType::Int,
            ColumnVector::Int(vals().map(|x| x as i32).collect(), None),
        ),
        (
            "decimal",
            DataType::Decimal(7, 2),
            ColumnVector::Decimal(vals().map(|x| x as i128).collect(), 2, None),
        ),
    ];
    let aggs: Vec<AggExpr> = [AggFunc::Sum, AggFunc::Min, AggFunc::Max]
        .map(|func| AggExpr {
            func,
            arg: Some(ScalarExpr::Column(0)),
            distinct: false,
        })
        .to_vec();
    for (name, dt, col) in columns {
        let schema = Schema::new(vec![Field::new("c", dt)]);
        let out_schema = aggregate_schema(&schema, &[], &aggs);
        let batch = VectorBatch::new(schema, vec![col]).unwrap();
        let half = SelVec::Idx((0..ROWS as u32).filter(|i| i % 4 < 2).collect());
        for (sel_name, sel) in [("all", SelVec::All(ROWS)), ("idx50", half)] {
            let values = sel.len() * aggs.len();
            let parts = [SelBatch::new(batch.clone(), sel).unwrap()];
            report_ns(
                &format!("aggregate/keyless_sum_min_max_300k/{name}/{sel_name}"),
                "value",
                50,
                values as f64,
                || {
                    let mut pc = hive_exec::pir::PirCounters::default();
                    let out = hive_exec::aggregate::execute_aggregate_parts(
                        &parts,
                        &[],
                        &None,
                        &aggs,
                        &out_schema,
                        1,
                        None,
                        Some(&mut pc),
                    )
                    .map(|(batch, _)| batch);
                    std::hint::black_box(out.unwrap().num_rows());
                },
            );
        }
    }
}

/// The hash-key layer, one operator call per case: a single INT join
/// key against a build side that fits the cache and one that does not
/// (both unique and dense, so addressed directly), the small build's
/// keys scattered over `i32` (hashed), a two-column INT key, a key-less LEFT join (a scalar subquery's
/// shape), a GROUP BY over an (INT, dictionary) key, and the byte
/// table's zero-length key. Prints ns per probe / input row; recorded in
/// EXPERIMENTS.md, not gated on time.
fn bench_hash_keys(_c: &mut Criterion) {
    use hive_common::ColumnVector;
    const ROWS: usize = 300_000;
    let ints = |name: &str, cols: Vec<Vec<i32>>| {
        let fields = (0..cols.len())
            .map(|c| Field::new(format!("{name}{c}"), DataType::Int))
            .collect();
        let cols = cols
            .into_iter()
            .map(|v| ColumnVector::Int(v, None))
            .collect();
        VectorBatch::new(Schema::new(fields), cols).unwrap()
    };
    let scatter = |i: usize, domain: usize| (i.wrapping_mul(2_654_435_761) % domain) as i32;
    let row_ids = |n: usize| (0..n as i32).collect::<Vec<i32>>();
    let col0 = || vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
    let join_case = |name: &str,
                     left: VectorBatch,
                     right: VectorBatch,
                     jt: JoinType,
                     equi: Vec<(ScalarExpr, ScalarExpr)>| {
        let out_schema = if jt.keeps_right() {
            left.schema().join(right.schema())
        } else {
            left.schema().clone()
        };
        report_ns(name, "probe row", 20, left.num_rows() as f64, || {
            let out = execute_join(&left, &right, jt, &equi, &None, &out_schema, usize::MAX);
            std::hint::black_box(out.unwrap().num_rows());
        });
    };
    for (name, build) in [("2k", 2_000), ("300k", ROWS)] {
        join_case(
            &format!("join/probe_int_key_build_{name}"),
            ints(
                "l",
                vec![
                    (0..ROWS).map(|i| scatter(i, build)).collect(),
                    row_ids(ROWS),
                ],
            ),
            ints(
                "r",
                vec![
                    (0..build).map(|i| scatter(i + 17, build)).collect(),
                    row_ids(build),
                ],
            ),
            JoinType::Inner,
            col0(),
        );
    }
    // The same 2k build with its keys scattered over all of `i32`: too
    // sparse to address directly, so the hashed index stays measured.
    let sparse = |k: i32| (k as u32).wrapping_mul(2_654_435_761) as i32;
    join_case(
        "join/probe_sparse_int_key_build_2k",
        ints(
            "l",
            vec![
                (0..ROWS).map(|i| sparse(scatter(i, 2_000))).collect(),
                row_ids(ROWS),
            ],
        ),
        ints(
            "r",
            vec![
                (0..2_000).map(|i| sparse(scatter(i + 17, 2_000))).collect(),
                row_ids(2_000),
            ],
        ),
        JoinType::Inner,
        col0(),
    );
    let pair = |i: usize| (scatter(i, 1_000), scatter(i / 7, 300));
    join_case(
        "join/probe_two_int_keys_build_300k",
        ints(
            "l",
            vec![
                (0..ROWS).map(|i| pair(i * 3).0).collect(),
                (0..ROWS).map(|i| pair(i * 3).1).collect(),
                row_ids(ROWS),
            ],
        ),
        ints(
            "r",
            vec![
                (0..ROWS).map(|i| pair(i).0).collect(),
                (0..ROWS).map(|i| pair(i).1).collect(),
                row_ids(ROWS),
            ],
        ),
        JoinType::Semi,
        vec![
            (ScalarExpr::Column(0), ScalarExpr::Column(0)),
            (ScalarExpr::Column(1), ScalarExpr::Column(1)),
        ],
    );
    join_case(
        "join/keyless_left_300k_x_1",
        ints("l", vec![row_ids(ROWS)]),
        ints("r", vec![vec![42]]),
        JoinType::Left,
        vec![],
    );

    let words = std::sync::Arc::new((0..40).map(|w| format!("word-{w:03}")).collect::<Vec<_>>());
    let batch = VectorBatch::new(
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("d", DataType::String),
            Field::new("v", DataType::Int),
        ]),
        vec![
            ColumnVector::Int((0..ROWS).map(|i| scatter(i, 500)).collect(), None),
            ColumnVector::dict_from_codes(
                (0..ROWS).map(|i| scatter(i / 3, 40) as u32).collect(),
                words,
                None,
            )
            .unwrap(),
            ColumnVector::Int(row_ids(ROWS), None),
        ],
    )
    .unwrap();
    let groups = vec![ScalarExpr::Column(0), ScalarExpr::Column(1)];
    let aggs = vec![AggExpr {
        func: AggFunc::Sum,
        arg: Some(ScalarExpr::Column(2)),
        distinct: false,
    }];
    let out_schema = aggregate_schema(batch.schema(), &groups, &aggs);
    report_ns(
        "aggregate/group_int_dict_300k",
        "row",
        20,
        ROWS as f64,
        || {
            let out = execute_aggregate(&batch, &groups, &None, &aggs, &out_schema);
            std::hint::black_box(out.unwrap().num_rows());
        },
    );

    const FINDS: usize = 3_000_000;
    let empty_key = hive_common::hash::FNV_OFFSET;
    let mut table = hive_exec::RawTable::new();
    table.insert(empty_key, b"");
    report_ns("rawtable/find_empty_key", "find", 5, FINDS as f64, || {
        let mut hits = 0usize;
        for _ in 0..FINDS {
            hits += std::hint::black_box(&table)
                .find(empty_key, std::hint::black_box(b""))
                .is_some() as usize;
        }
        std::hint::black_box(hits);
    });
}

/// What a short statement pays per call rather than per row: handing a
/// two-item call to the persistent executors (plain and from inside
/// another call), a results-cache hit through `Session::execute`, a
/// semijoin reducer built from 5 000 INT keys, and row checks over
/// 300 000 rows against each layout of the filter (dense INT, hashed
/// BIGINT, a dictionary probe of STRING keys). Prints ns per call / per
/// row; recorded in EXPERIMENTS.md, not gated on time.
fn bench_fixed_costs(_c: &mut Criterion) {
    use hive_common::ColumnVector;
    use hive_exec::par::parallel_map;

    report_ns(
        "par/dispatch_2_workers_trivial_items",
        "call",
        20_000,
        1.0,
        || {
            std::hint::black_box(parallel_map(2, 2, Ok).unwrap());
        },
    );
    report_ns("par/dispatch_nested", "outer call", 10_000, 1.0, || {
        let inner = |_| parallel_map(2, 2, Ok);
        std::hint::black_box(parallel_map(2, 2, inner).unwrap());
    });

    let server = hive_core::HiveServer::new(HiveConf::v3_1());
    let sess = server.session();
    sess.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    let vals: Vec<String> = (0..500).map(|i| format!("({}, {i})", i % 10)).collect();
    sess.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
        .unwrap();
    let q = "SELECT k, SUM(v) AS s FROM t WHERE k < 5 GROUP BY k ORDER BY s DESC LIMIT 3";
    sess.execute(q).unwrap();
    report_ns("driver/results_cache_hit", "execute", 5_000, 1.0, || {
        assert!(sess.execute(q).unwrap().from_cache);
    });

    // Reducer builds and row checks, through the selection narrowing a
    // morsel worker applies. Two rows in three of each probe fall outside
    // the build's keys.
    use hive_common::SelVec;
    use hive_exec::runtime_filter::RuntimeFilter;
    let scatter = |i: usize, domain: usize| i.wrapping_mul(2_654_435_761) % domain;
    let ints = |rows: usize, domain: usize| -> Vec<i32> {
        (0..rows).map(|i| scatter(i, domain) as i32).collect()
    };
    let build = ColumnVector::Int(ints(5_000, 1_500), None);
    report_ns("reducer/build_int_5000", "build row", 200, 5_000.0, || {
        std::hint::black_box(RuntimeFilter::build(&build));
    });
    let row_check = |name: &str, build: ColumnVector, probe: ColumnVector| {
        let filter = RuntimeFilter::build(&build).unwrap();
        report_ns(name, "row", 10, 300_000.0, || {
            std::hint::black_box(filter.retain(&probe, SelVec::All(300_000)));
        });
    };
    // Dense: 1 500 INT keys over a span of 1 500 — the exact bitmap.
    row_check(
        "reducer/row_check_int_300k",
        build.clone(),
        ColumnVector::Int(ints(300_000, 4_500), None),
    );
    // Hashed: 1 500 BIGINT keys a million apart, far more than 16 bits a
    // key — the sorted set of encoding hashes.
    let spread = |rows: usize, domain: usize| -> Vec<i64> {
        (0..rows)
            .map(|i| scatter(i, domain) as i64 * 1_000_003)
            .collect()
    };
    row_check(
        "reducer/row_check_sparse_bigint_300k",
        ColumnVector::BigInt(spread(5_000, 1_500), None),
        ColumnVector::BigInt(spread(300_000, 4_500), None),
    );
    // A dictionary probe against STRING keys: one verdict per entry.
    let names = |rows: usize, domain: usize| -> Vec<String> {
        (0..rows)
            .map(|i| format!("brand #{}", scatter(i, domain)))
            .collect()
    };
    let dict: Vec<String> = (0..4_500).map(|i| format!("brand #{i}")).collect();
    row_check(
        "reducer/row_check_dict_300k",
        ColumnVector::Str(names(5_000, 1_500), None),
        ColumnVector::Dict {
            codes: (0..300_000).map(|i| scatter(i, 4_500) as u32).collect(),
            dict: std::sync::Arc::new(dict),
            nulls: None,
        },
    );
}

/// An ACID read against the same rows read plain: sixty partitions of
/// 5 000 rows swept by a key-less aggregate from a cold LLAP cache, as a
/// non-ACID table, as an ACID table every row group of which the
/// snapshot sees whole (no identity chunk is fetched: the DFS reads
/// must equal the plain table's), and after one DELETE whose tombstone
/// reaches one row group of the sixty (three identity chunks more).
/// Prints ns per row and DFS reads per scan; recorded in
/// EXPERIMENTS.md, not gated on time.
fn bench_acid_read_path(_c: &mut Criterion) {
    const PARTS: usize = 60;
    const PER_PART: usize = 5_000;
    let server = hive_core::HiveServer::new(HiveConf::v3_1().with(|c| {
        c.results_cache = false;
        c.auto_compaction = false;
    }));
    let sess = server.session();
    let part_rows = |p: usize, with_part: bool| -> Vec<Row> {
        (0..PER_PART)
            .map(|i| {
                let k = (p * PER_PART + i) as i64;
                let mut vals = vec![Value::BigInt(k), Value::BigInt(k * 31 % 997)];
                if with_part {
                    vals.push(Value::Int(p as i32));
                }
                Row::new(vals)
            })
            .collect()
    };
    sess.execute("CREATE TABLE acid_t (k BIGINT, c BIGINT) PARTITIONED BY (p INT)")
        .unwrap();
    let all: Vec<Row> = (0..PARTS).flat_map(|p| part_rows(p, true)).collect();
    sess.bulk_insert("acid_t", all).unwrap();
    sess.execute("CREATE EXTERNAL TABLE plain_t (k BIGINT, c BIGINT) PARTITIONED BY (p INT)")
        .unwrap();
    let data = Schema::new(vec![
        Field::new("k", DataType::BigInt),
        Field::new("c", DataType::BigInt),
    ]);
    for p in 0..PARTS {
        let info = server
            .metastore()
            .add_partition("default", "plain_t", vec![Value::Int(p as i32)])
            .unwrap();
        let batch = VectorBatch::from_rows(&data, &part_rows(p, false)).unwrap();
        let bytes = write_batch_to_bytes(&batch, WriterOptions::default()).unwrap();
        let path = hive_dfs::DfsPath::new(format!("{}/data_0", info.location));
        server.fs().create(&path, bytes).unwrap();
    }
    let scan = |name: &str, table: &str| {
        let q = format!("SELECT SUM(c), MIN(k), COUNT(*) FROM {table}");
        let mut reads = 0;
        report_ns(name, "row", 20, (PARTS * PER_PART) as f64, || {
            server.llap().cache().clear();
            let before = server.fs().stats().snapshot();
            std::hint::black_box(sess.execute(&q).unwrap());
            reads = server.fs().stats().snapshot().since(&before).reads;
        });
        println!("    {reads} DFS reads/scan");
    };
    scan("plain/scan_60x5000", "plain_t");
    scan("acid/scan_whole_visible_60x5000", "acid_t");
    sess.execute(&format!(
        "DELETE FROM acid_t WHERE p = 7 AND k = {}",
        7 * PER_PART + 11
    ))
    .unwrap();
    scan("acid/scan_tombstones_touch_1_of_60", "acid_t");
}

/// Strings a join replicates (DESIGN.md §4 "Replicated strings"): a
/// 10-row dimension's plain string column fanned out over 300 000 fact
/// rows, the same fan-out at the encode threshold's worst case (a
/// dimension of all-distinct strings one row shorter than the output), a
/// join whose output is its probe side row for row (four DECIMAL payload
/// columns it need not copy), a GROUP BY over a replicated string, and
/// the bare gather at 1x + 1, 2x (all-distinct strings: the dedup pass
/// buys nothing) and 30 000x. Prints ns per output row; recorded in
/// EXPERIMENTS.md, not gated on time.
fn bench_replicated_strings(_c: &mut Criterion) {
    use hive_common::ColumnVector;
    const ROWS: usize = 300_000;
    let scatter = |i: usize, domain: usize| (i.wrapping_mul(2_654_435_761) % domain) as i32;
    let names = |n: usize| {
        (0..n)
            .map(|i| format!("store name {i:07}"))
            .collect::<Vec<_>>()
    };
    let dimension = |n: usize| {
        VectorBatch::new(
            Schema::new(vec![
                Field::new("d_k", DataType::Int),
                Field::new("d_name", DataType::String),
            ]),
            vec![
                ColumnVector::Int((0..n as i32).collect(), None),
                ColumnVector::Str(names(n), None),
            ],
        )
        .unwrap()
    };
    let facts = |domain: usize, decimals: usize| {
        let mut fields = vec![Field::new("f_k", DataType::Int)];
        let mut cols = vec![ColumnVector::Int(
            (0..ROWS).map(|i| scatter(i, domain)).collect(),
            None,
        )];
        for c in 0..decimals {
            fields.push(Field::new(format!("f_m{c}"), DataType::Decimal(7, 2)));
            cols.push(ColumnVector::Decimal(
                (0..ROWS).map(|i| (i * (c + 3)) as i128 % 100_000).collect(),
                2,
                None,
            ));
        }
        VectorBatch::new(Schema::new(fields), cols).unwrap()
    };
    let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
    let join_case = |name: &str, left: VectorBatch, right: VectorBatch| {
        let out_schema = left.schema().join(right.schema());
        report_ns(name, "output row", 20, ROWS as f64, || {
            let out = execute_join(
                &left,
                &right,
                JoinType::Inner,
                &equi,
                &None,
                &out_schema,
                usize::MAX,
            )
            .unwrap();
            assert_eq!(out.num_rows(), ROWS);
            std::hint::black_box(out);
        });
    };
    join_case("join/fanout_str_dim_300k_x_10", facts(10, 0), dimension(10));

    // A star probe as a scan hands it over: the fact side in 60 parts of
    // 5 000 rows, joined with a 2 000-row dimension and that output, on
    // the dimension's key, with a second one — part by part, at one
    // worker and at two.
    let fact = facts(2_000, 2);
    let parts: Vec<hive_common::SelBatch> = (0..60)
        .map(|p| {
            let rows: Vec<u32> = (p * 5_000..(p + 1) * 5_000).map(|r| r as u32).collect();
            hive_common::SelBatch::from_batch(fact.take(&rows))
        })
        .collect();
    let dim = dimension(2_000);
    let first_schema = fact.schema().join(dim.schema());
    let star_schema = first_schema.join(dim.schema());
    let second = vec![(ScalarExpr::Column(3), ScalarExpr::Column(0))];
    for workers in [1, 2] {
        report_ns(
            &format!("join/star_probe_parts_300k/{workers}_workers"),
            "probe row",
            20,
            ROWS as f64,
            || {
                let join = |parts: &[hive_common::SelBatch], equi: &[_], schema| {
                    hive_exec::join::execute_join_parts(
                        parts,
                        &hive_common::SelBatch::from_batch(dim.clone()),
                        JoinType::Inner,
                        equi,
                        &None,
                        schema,
                        usize::MAX,
                        workers,
                        None,
                        None,
                    )
                    .unwrap()
                    .0
                };
                let out = join(&join(&parts, &equi, &first_schema), &second, &star_schema);
                std::hint::black_box(out.len());
            },
        );
    }
    join_case(
        "join/fanout_str_near_1x_300k",
        facts(ROWS - 1, 0),
        dimension(ROWS - 1),
    );
    // The dimension's only payload is its key: what is timed beside the
    // probe is the probe side's own four columns.
    join_case(
        "join/one_to_one_probe_4_decimal_cols_300k",
        facts(2_000, 4),
        dimension(2_000).project(&[0]),
    );

    let idx: Vec<u32> = (0..ROWS).map(|i| scatter(i, 10) as u32).collect();
    let batch = VectorBatch::new(
        Schema::new(vec![
            Field::new("name", DataType::String),
            Field::new("v", DataType::Int),
        ]),
        vec![
            ColumnVector::Str(names(10), None).take(&idx),
            ColumnVector::Int((0..ROWS as i32).collect(), None),
        ],
    )
    .unwrap();
    let groups = vec![ScalarExpr::Column(0)];
    let aggs = vec![AggExpr {
        func: AggFunc::Sum,
        arg: Some(ScalarExpr::Column(1)),
        distinct: false,
    }];
    let out_schema = aggregate_schema(batch.schema(), &groups, &aggs);
    report_ns(
        "aggregate/group_replicated_str_300k",
        "row",
        20,
        ROWS as f64,
        || {
            let out = execute_aggregate(&batch, &groups, &None, &aggs, &out_schema);
            std::hint::black_box(out.unwrap().num_rows());
        },
    );

    for (name, len, cells) in [
        ("1x+1", ROWS / 2, ROWS / 2 + 1),
        ("2x", ROWS / 2, ROWS),
        ("30000x", 10, ROWS),
    ] {
        let src = ColumnVector::Str(names(len), None);
        let idx: Vec<u32> = (0..cells).map(|i| scatter(i, len) as u32).collect();
        report_ns(
            &format!("gather/str_take_{name}"),
            "output row",
            20,
            cells as f64,
            || {
                std::hint::black_box(src.take(std::hint::black_box(&idx)));
            },
        );
    }
}

/// The aggregate from fold to output, and the last row loop a filter
/// ran: a `GROUP BY` over two INT columns with a group per row (TPC-DS
/// q34's inner aggregate: key preparation and group discovery timed on
/// their own through the key layer, then the whole operator compiled at
/// one worker — fold and emit are what it adds to those two — and at
/// two, which adds routing and the partition merge, and interpreted for
/// contrast), `COUNT(DISTINCT int)` over four groups (q73), a `GROUP BY`
/// over two ten-entry dictionaries (q27), `EXCEPT` over one INT key
/// spanning 5 000 values (q87), a decimal
/// SUM over 20 000 groups, and a `DECIMAL` column filtered against the
/// `DOUBLE` column a scalar subquery leaves beside it (q25 / q65 / q92;
/// the statement also scans, joins and counts, so the same statement
/// against a literal is printed beside it). Prints ns per input row;
/// recorded in EXPERIMENTS.md, not gated on time.
fn bench_aggregate_states(_c: &mut Criterion) {
    use hive_common::{ColumnVector, SelBatch, SelVec};
    use hive_exec::aggregate::execute_aggregate_parts;
    use hive_exec::keys::{Grouper, KeySide};
    use hive_exec::pir::PirCounters;

    let scatter = |i: usize, domain: usize| (i.wrapping_mul(2_654_435_761) % domain) as i32;
    let count_star = || AggExpr {
        func: AggFunc::Count,
        arg: None,
        distinct: false,
    };
    // The operator as the engine calls it with the physical IR on
    // (`compiled`) and off, at `workers` workers.
    let aggregate_case = |name: &str,
                          batch: &VectorBatch,
                          groups: &[ScalarExpr],
                          aggs: &[AggExpr],
                          workers: usize,
                          compiled: bool| {
        let out_schema = aggregate_schema(batch.schema(), groups, aggs);
        let input = SelBatch::from_batch(batch.clone());
        let rows = batch.num_rows() as f64;
        report_ns(name, "row", 10, rows, || {
            let mut pc = PirCounters::default();
            let pir = compiled.then_some(&mut pc);
            let out = execute_aggregate_parts(
                std::slice::from_ref(&input),
                groups,
                &None,
                aggs,
                &out_schema,
                workers,
                None,
                pir,
            )
            .map(|(batch, _)| batch);
            std::hint::black_box(out.unwrap().num_rows());
        });
    };
    let variants = |name: &str, batch: &VectorBatch, groups: &[ScalarExpr], aggs: &[AggExpr]| {
        aggregate_case(name, batch, groups, aggs, 1, true);
        aggregate_case(&format!("{name}/2_workers"), batch, groups, aggs, 2, true);
        aggregate_case(
            &format!("{name}/interpreted"),
            batch,
            groups,
            aggs,
            1,
            false,
        );
    };

    const TICKETS: usize = 180_000;
    let int_field = |name: &str| Field::new(name, DataType::Int);
    let tickets = VectorBatch::new(
        Schema::new(vec![int_field("ticket"), int_field("customer")]),
        vec![
            ColumnVector::Int((0..TICKETS as i32).collect(), None),
            ColumnVector::Int((0..TICKETS).map(|i| scatter(i, 20_000)).collect(), None),
        ],
    )
    .unwrap();
    let name = "aggregate/group_all_distinct_2int_180k";
    let side = KeySide::group(&[tickets.column(0), tickets.column(1)]);
    let all = SelVec::All(TICKETS);
    report_ns(&format!("{name}/key"), "row", 10, TICKETS as f64, || {
        std::hint::black_box(side.keys(&all, 0, TICKETS));
    });
    let keys = side.keys(&all, 0, TICKETS);
    report_ns(
        &format!("{name}/discover"),
        "row",
        10,
        TICKETS as f64,
        || {
            let mut assign = Vec::with_capacity(TICKETS);
            let mut groups = Grouper::new(&side, 1);
            groups
                .assign(&keys, None, |_, g, _| assign.push(g))
                .unwrap();
            std::hint::black_box(assign);
        },
    );
    let both = [ScalarExpr::Column(0), ScalarExpr::Column(1)];
    variants(name, &tickets, &both, &[count_star()]);

    const ROWS: usize = 300_000;
    let potentials = std::sync::Arc::new(
        [">10000", "5001-10000", "1001-5000", "Unknown"]
            .map(String::from)
            .to_vec(),
    );
    let baskets = VectorBatch::new(
        Schema::new(vec![
            Field::new("potential", DataType::String),
            int_field("ticket"),
        ]),
        vec![
            ColumnVector::dict_from_codes(
                (0..ROWS).map(|i| scatter(i / 3, 4) as u32).collect(),
                potentials,
                None,
            )
            .unwrap(),
            ColumnVector::Int((0..ROWS).map(|i| (i / 3) as i32).collect(), None),
        ],
    )
    .unwrap();
    let distinct_tickets = AggExpr {
        func: AggFunc::Count,
        arg: Some(ScalarExpr::Column(1)),
        distinct: true,
    };
    variants(
        "aggregate/count_distinct_int_300k_4_groups",
        &baskets,
        &[ScalarExpr::Column(0)],
        &[distinct_tickets],
    );

    // q27's shape: two dictionary keys of ten entries each, 100 groups.
    let dict10 = |prefix: &str| {
        let entries = (0..10).map(|e| format!("{prefix}{e}")).collect::<Vec<_>>();
        std::sync::Arc::new(entries)
    };
    let (categories, states) = (dict10("category-"), dict10("state-"));
    let dict_rows = |dict, stride| {
        let codes = (0..ROWS).map(|i| scatter(i * stride, 10) as u32).collect();
        ColumnVector::dict_from_codes(codes, dict, None).unwrap()
    };
    let two_dicts = VectorBatch::new(
        Schema::new(vec![
            Field::new("category", DataType::String),
            Field::new("state", DataType::String),
            int_field("quantity"),
        ]),
        vec![
            dict_rows(categories, 1),
            dict_rows(states, 7),
            ColumnVector::Int((0..ROWS).map(|i| scatter(i, 100)).collect(), None),
        ],
    )
    .unwrap();
    let sum_quantity = AggExpr {
        func: AggFunc::Sum,
        arg: Some(ScalarExpr::Column(2)),
        distinct: false,
    };
    variants(
        "aggregate/group_two_dict_keys_300k",
        &two_dicts,
        &[ScalarExpr::Column(0), ScalarExpr::Column(1)],
        &[count_star(), sum_quantity],
    );

    // q87's shape: EXCEPT over one INT key spanning 5 000 values, a
    // 300 000-row left input and a 30 000-row right one.
    let customers = |rows: usize, salt: usize| {
        let keys = (0..rows).map(|i| 1 + scatter(i + salt, 5_000)).collect();
        let schema = Schema::new(vec![int_field("c_customer_sk")]);
        VectorBatch::new(schema, vec![ColumnVector::Int(keys, None)]).unwrap()
    };
    let (left, right) = (customers(ROWS, 0), customers(ROWS / 10, 17));
    let rows = (left.num_rows() + right.num_rows()) as f64;
    report_ns("setop/except_int_key_330k", "row", 10, rows, || {
        let out = hive_exec::engine::execute_setop(
            hive_sql::SetOperator::Except,
            false,
            &left,
            &right,
            left.schema(),
        );
        std::hint::black_box(out.unwrap().0.num_rows());
    });

    let priced = VectorBatch::new(
        Schema::new(vec![
            int_field("item"),
            Field::new("price", DataType::Decimal(7, 2)),
        ]),
        vec![
            ColumnVector::Int((0..ROWS).map(|i| scatter(i, 20_000)).collect(), None),
            ColumnVector::Decimal((0..ROWS).map(|i| (i % 10_000) as i128).collect(), 2, None),
        ],
    )
    .unwrap();
    let sum_price = AggExpr {
        func: AggFunc::Sum,
        arg: Some(ScalarExpr::Column(1)),
        distinct: false,
    };
    variants(
        "aggregate/sum_decimal_20k_groups_300k",
        &priced,
        &[ScalarExpr::Column(0)],
        &[sum_price],
    );

    let server = hive_core::HiveServer::new(HiveConf::v3_1().with(|c| c.results_cache = false));
    let sess = server.session();
    sess.execute("CREATE TABLE sales (item INT, price DECIMAL(7,2))")
        .unwrap();
    sess.bulk_insert("sales", priced.to_rows()).unwrap();
    for (name, sql) in [
        (
            "filter/decimal_col_vs_double_col_300k",
            "SELECT COUNT(*) FROM sales WHERE price <= (SELECT AVG(price) * 1.2 FROM sales)",
        ),
        (
            "filter/decimal_col_vs_literal_300k",
            "SELECT COUNT(*) FROM sales WHERE price <= 60.00",
        ),
    ] {
        report_ns(name, "row", 10, ROWS as f64, || {
            std::hint::black_box(sess.execute(sql).unwrap().display_rows());
        });
    }
}

criterion_group!(
    benches,
    bench_corc,
    bench_llap_cache,
    bench_exec_kernels,
    bench_frontend,
    bench_optimize_loaded,
    bench_cold_read_path,
    bench_keyless_fold,
    bench_hash_keys,
    bench_fixed_costs,
    bench_acid_read_path,
    bench_replicated_strings,
    bench_aggregate_states
);
criterion_main!(benches);
