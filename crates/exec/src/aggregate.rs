//! Hash aggregation, including DISTINCT aggregates and GROUPING SETS.
//!
//! The build phase is morsel-parallel: rows are partitioned by a stable
//! group-key hash so each group's rows land in exactly one partition
//! and fold in ascending row order — the same fold order as the serial
//! loop, which matters for order-sensitive accumulators (f64 sums,
//! Welford variance). Partitions merge by each group's first-seen row
//! index, so the emitted row order is byte-identical for any worker or
//! partition count (and deterministic, unlike HashMap iteration order).
//!
//! A build's per-group states ([`States`]) are columns on the compiled
//! path — one [`FoldOut`] per aggregate from the fold to the output
//! column — and accumulator rows (`Vec<Acc>` per group) only where the
//! interpreter *is* the implementation: row mode (`vectorized = false`,
//! the differential reference) and `STDDEV_SAMP`. A build that spills is
//! the in-memory build over each spilled partition's positions, so it
//! is compiled or interpreted exactly as the in-memory one would be.

use crate::engine::{align_column, compact_for};
use crate::join::lap;
use crate::kernels::eval_vector;
use crate::keys::{Grouper, IndexKind, KeySide, RowKeys, Runs, ValueSet};
use crate::pir::agg::FoldOut;
use crate::spill::SpillCtx;
use hive_common::{
    ColumnVector, HiveError, Result, SelBatch, SelVec, Value, VectorBatch, NULL_INDEX,
};
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use std::sync::Arc;
use std::time::Instant;

/// How an aggregate ran and where its wall-clock time went, a
/// [`SetProfile`] per grouping set — what an `Aggregate`
/// [`crate::engine::NodeTrace`] carries for profiles. The times are
/// wall-clock: nothing that decides a result, a simulated time or a
/// fault roll reads them.
#[derive(Debug, Clone, Default)]
pub struct AggregateProfile {
    pub sets: Vec<SetProfile>,
}

/// One grouping set's route, index kinds and wall nanoseconds by phase.
/// A phase run across workers records its wall time, split over its
/// steps in proportion to their in-worker times.
#[derive(Debug, Clone, Default)]
pub struct SetProfile {
    /// `parts` ([`fold_parts`]), `assembled`, `spilled` (a denied
    /// memory grant) or `keyless` (no group keys).
    pub route: &'static str,
    /// The group index's kind — dense only when every index the set
    /// built (per part, per partition) was.
    pub groups: IndexKind,
    /// The DISTINCT filters' kind, by the same rule; `None` without a
    /// DISTINCT aggregate.
    pub distinct: Option<IndexKind>,
    /// Partitions of the assembled build.
    pub partitions: usize,
    /// Key classification, spans and per-row keys.
    pub keys_ns: u64,
    /// Routing rows to partitions.
    pub scatter_ns: u64,
    /// The group index walk.
    pub discover_ns: u64,
    /// Accumulator folds, DISTINCT filters included.
    pub fold_ns: u64,
    /// Joining the partitions' or the parts' groups.
    pub merge_ns: u64,
    /// The output batch.
    pub emit_ns: u64,
}

impl SetProfile {
    /// The route column: group index kind, route and partition count,
    /// e.g. `dense/assembled/4`.
    pub fn route(&self) -> String {
        format!("{}/{}/{}", self.groups.name(), self.route, self.partitions)
    }

    /// Record a DISTINCT filter of kind `k`.
    fn distinct_kind(&mut self, k: IndexKind) {
        self.distinct = Some(self.distinct.map_or(k, |have| combine(have, k)));
    }

    fn phases(&mut self) -> [&mut u64; 6] {
        [
            &mut self.keys_ns,
            &mut self.scatter_ns,
            &mut self.discover_ns,
            &mut self.fold_ns,
            &mut self.merge_ns,
            &mut self.emit_ns,
        ]
    }

    /// Add the steps of one section that took `wall` nanoseconds: their
    /// index kinds combine, their phases add up scaled to `wall`.
    fn absorb(&mut self, mut steps: Vec<SetProfile>, wall: u64) {
        let spent: u64 = steps
            .iter_mut()
            .flat_map(|s| s.phases())
            .map(|ns| *ns)
            .sum();
        for mut step in steps {
            self.groups = combine(self.groups, step.groups);
            if let Some(k) = step.distinct {
                self.distinct_kind(k);
            }
            for (ns, add) in self.phases().into_iter().zip(step.phases()) {
                *ns += (*add as u128 * wall as u128 / spent.max(1) as u128) as u64;
            }
        }
    }

    /// [`SetProfile::absorb`] for one serial step: its times as they are.
    fn add(&mut self, mut step: SetProfile) {
        let wall = step.phases().into_iter().map(|ns| *ns).sum();
        self.absorb(vec![step], wall);
    }
}

/// The kind of several indexes of one grouping set: dense only when all
/// of them were.
fn combine(a: IndexKind, b: IndexKind) -> IndexKind {
    match (a, b) {
        (IndexKind::Keyless, k) | (k, IndexKind::Keyless) => k,
        (a, b) if a == b => a,
        _ => IndexKind::Hashed,
    }
}

/// One in-flight aggregate state: the interpreted accumulator of a
/// GROUP BY row and of a window frame.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(i64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        count: i64,
    },
    /// Welford's online variance.
    Stddev {
        n: i64,
        mean: f64,
        m2: f64,
    },
    Distinct {
        seen: DistinctSet,
        func: AggFunc,
    },
}

/// Dedup state for DISTINCT aggregates: the values seen, in first-seen
/// order (`vals`), deduplicated through the key layer's [`ValueSet`].
/// First-seen order is what keeps fold-order sensitive finishers
/// (SUM/AVG over doubles) byte-identical across worker counts — a
/// group's rows all live in one partition and arrive in ascending row
/// order.
#[derive(Debug, Clone, Default)]
pub(crate) struct DistinctSet {
    set: ValueSet,
    vals: Vec<Value>,
}

impl DistinctSet {
    fn insert(&mut self, v: &Value) {
        if self.set.insert(v) {
            self.vals.push(v.clone());
        }
    }
}

impl Acc {
    fn new(a: &AggExpr) -> Acc {
        if a.distinct {
            return Acc::Distinct {
                seen: DistinctSet::default(),
                func: a.func,
            };
        }
        Acc::of(a.func)
    }

    /// A plain (not DISTINCT) accumulator for `func`.
    pub(crate) fn of(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
            AggFunc::StddevSamp => Acc::Stddev {
                n: 0,
                mean: 0.0,
                m2: 0.0,
            },
        }
    }

    /// Fold one value (`None` arg = COUNT(*) semantics).
    pub(crate) fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            Acc::Count(c) => {
                match v {
                    None => *c += 1,                    // COUNT(*)
                    Some(x) if !x.is_null() => *c += 1, // COUNT(expr)
                    _ => {}
                }
            }
            Acc::Sum(acc) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        *acc = Some(match acc.take() {
                            None => x.clone(),
                            Some(cur) => cur.add(x)?,
                        });
                    }
                }
            }
            Acc::Min(acc) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(cur) => x.sql_cmp(cur) == Some(std::cmp::Ordering::Less),
                        };
                        if replace {
                            *acc = Some(x.clone());
                        }
                    }
                }
            }
            Acc::Max(acc) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(cur) => x.sql_cmp(cur) == Some(std::cmp::Ordering::Greater),
                        };
                        if replace {
                            *acc = Some(x.clone());
                        }
                    }
                }
            }
            Acc::Avg { sum, count } => {
                if let Some(x) = v {
                    if let Some(f) = x.as_f64() {
                        *sum += f;
                        *count += 1;
                    }
                }
            }
            Acc::Stddev { n, mean, m2 } => {
                if let Some(x) = v {
                    if let Some(f) = x.as_f64() {
                        *n += 1;
                        let delta = f - *mean;
                        *mean += delta / *n as f64;
                        *m2 += delta * (f - *mean);
                    }
                }
            }
            Acc::Distinct { seen, .. } => {
                if let Some(x) = v {
                    if !x.is_null() {
                        seen.insert(x);
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Result<Value> {
        Ok(match self {
            Acc::Count(c) => Value::BigInt(c),
            Acc::Sum(v) => v.unwrap_or(Value::Null),
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / count as f64)
                }
            }
            Acc::Stddev { n, m2, .. } => {
                if n < 2 {
                    Value::Null
                } else {
                    Value::Double((m2 / (n - 1) as f64).sqrt())
                }
            }
            Acc::Distinct { seen, func } => {
                // Fold in first-seen order (see [`DistinctSet`]).
                let vals = seen.vals;
                match func {
                    AggFunc::Count => Value::BigInt(vals.len() as i64),
                    AggFunc::Sum => {
                        let mut acc: Option<Value> = None;
                        for v in vals {
                            acc = Some(match acc {
                                None => v,
                                Some(cur) => cur.add(&v)?,
                            });
                        }
                        acc.unwrap_or(Value::Null)
                    }
                    AggFunc::Avg => {
                        let (mut s, mut n) = (0.0, 0);
                        for v in &vals {
                            if let Some(f) = v.as_f64() {
                                s += f;
                                n += 1;
                            }
                        }
                        if n == 0 {
                            Value::Null
                        } else {
                            Value::Double(s / n as f64)
                        }
                    }
                    AggFunc::Min => vals
                        .into_iter()
                        .min_by(|a, b| a.total_cmp_nulls_last(b))
                        .unwrap_or(Value::Null),
                    AggFunc::Max => vals
                        .into_iter()
                        .max_by(|a, b| a.total_cmp_nulls_last(b))
                        .unwrap_or(Value::Null),
                    AggFunc::StddevSamp => Value::Null,
                }
            }
        })
    }
}

/// Execute an Aggregate node over a materialized input (serial path;
/// identical results to [`execute_aggregate_parts`] at any worker count
/// and however the input is cut into parts).
pub fn execute_aggregate(
    input: &VectorBatch,
    group_exprs: &[ScalarExpr],
    grouping_sets: &Option<Vec<Vec<usize>>>,
    aggs: &[AggExpr],
    out_schema: &hive_common::Schema,
) -> Result<VectorBatch> {
    execute_aggregate_parts(
        std::slice::from_ref(&SelBatch::from_batch(input.clone())),
        group_exprs,
        grouping_sets,
        aggs,
        out_schema,
        1,
        None,
        None,
    )
    .map(|(batch, _)| batch)
}

/// Execute an Aggregate node over its input as an ordered sequence of
/// parts — a scan's morsels, or any materialized input as one part —
/// across up to `workers` threads. The result is byte-identical to
/// aggregating the parts' concatenation serially.
///
/// Each part is a `(batch, selection)` pair: bare-column keys and
/// arguments read straight through the selection (no compaction),
/// computed expressions compact the part once up front.
///
/// Several parts fold **part by part** ([`fold_parts`]) when every
/// aggregate's state merges exactly ([`crate::pir::agg::mergeable`]):
/// the input is never assembled. Otherwise — an order-sensitive
/// accumulator, the interpreted path, a denied memory grant — the key
/// and argument columns are assembled once and the single-part build
/// runs over them: hash-partitioned across the workers when there are
/// group keys, one accumulator row when there are none.
///
/// `out_schema` is the logical node's output schema (group keys, aggs,
/// and the grouping-id column when `grouping_sets` is present).
///
/// `pir` is `Some` in the vectorized engine (`None` in row mode): when
/// every aggregate is compilable ([`crate::pir::agg::compilable`]) the
/// build folds each through its kernel into per-group state columns
/// ([`FoldOut`]) and finishes those straight into the output columns —
/// no accumulator row and no `Value` per group in between — reporting
/// compiled/fallback accounting into the counters.
///
/// Returns the output beside the aggregate's route and wall-clock split.
#[allow(clippy::too_many_arguments)]
pub fn execute_aggregate_parts(
    parts: &[SelBatch],
    group_exprs: &[ScalarExpr],
    grouping_sets: &Option<Vec<Vec<usize>>>,
    aggs: &[AggExpr],
    out_schema: &hive_common::Schema,
    workers: usize,
    spill: Option<&SpillCtx<'_>>,
    mut pir: Option<&mut crate::pir::PirCounters>,
) -> Result<(VectorBatch, AggregateProfile)> {
    let mut evaluated = crate::par::parallel_map(workers, parts.len(), |p| {
        PartCols::eval(&parts[p], group_exprs, aggs)
    })?;
    let total_rows: usize = evaluated.iter().map(|p| p.sel.len()).sum();
    // Several parts fold part by part when every aggregate's states
    // merge — or, over a key-less set, when the ones that do not are a
    // SUM or AVG, which continue one state across the parts instead.
    // `Some(continued)`: per aggregate, whether it continues.
    let pir_on = pir.is_some();
    let by_parts = |evaluated: &[PartCols], set: &[usize]| -> Option<Vec<bool>> {
        if evaluated.len() <= 1 || !pir_on {
            return None;
        }
        (aggs.iter().enumerate())
            .map(|(ai, a)| {
                let args = || evaluated.iter().map(|p| p.arg_cols[ai].as_deref());
                if args().all(|arg| crate::pir::agg::mergeable(a.func, a.distinct, arg)) {
                    return Some(false);
                }
                let continues = set.is_empty()
                    && !a.distinct
                    && matches!(a.func, AggFunc::Sum | AggFunc::Avg)
                    && args().all(|arg| crate::pir::agg::compilable(a.func, false, arg));
                continues.then_some(true)
            })
            .collect()
    };
    // The input as one part, assembled when something first needs it.
    let mut whole: Option<PartCols> = match evaluated.len() {
        0 => return Err(HiveError::Execution("aggregate over no parts".into())),
        1 => evaluated.pop(),
        _ => None,
    };

    let sets: Vec<Vec<usize>> = match grouping_sets {
        Some(s) => s.clone(),
        None => vec![(0..group_exprs.len()).collect()],
    };
    let with_gid = grouping_sets.is_some();

    let mut any_compiled = false;
    let mut out: Vec<VectorBatch> = Vec::with_capacity(sets.len());
    let mut profile = AggregateProfile::default();
    for set in &sets {
        let mut prof = SetProfile {
            route: if set.is_empty() { "keyless" } else { "parts" },
            partitions: 1,
            ..Default::default()
        };
        // Grouping id: bit k set when key k is aggregated away.
        let gid: i64 = (0..group_exprs.len())
            .filter(|k| !set.contains(k))
            .fold(0i64, |acc, k| acc | (1 << k));
        let gid = with_gid.then_some(gid);
        // Memory admission: the modeled table bytes (rows is the upper
        // bound on groups) must win a broker grant, held through the
        // build. A denial degrades to the partitioned spilling build;
        // with spill disabled the build proceeds over budget instead
        // (visible in the broker peak) — group-bys have no in-memory
        // fallback the way joins have re-optimization.
        let est = crate::spill::estimate_agg_bytes(total_rows, set.len().max(1), aggs.len());
        let admission = spill.map(|sp| (sp, sp.broker.try_reserve("group-by", est)));
        let denied = matches!(&admission, Some((_, None)));

        if let Some(continued) = by_parts(&evaluated, set).filter(|_| !denied) {
            if let Some(f) = fold_parts(&evaluated, set, aggs, &continued, workers, &mut prof)? {
                any_compiled = true;
                let mut clock = Instant::now();
                out.push(emit_groups(
                    f.groups,
                    &f.key_rows,
                    &f.key_cols,
                    &f.arg_cols,
                    set,
                    gid,
                    out_schema,
                )?);
                prof.emit_ns = lap(&mut clock);
                profile.sets.push(prof);
                continue;
            }
        }
        if !set.is_empty() {
            prof.route = "assembled";
        }

        let input = match &mut whole {
            Some(w) => w,
            slot => slot.insert(PartCols::assemble(&evaluated)?),
        };
        // Compiled-accumulator gate: every aggregate must have a
        // monomorphized kernel for its argument's runtime representation,
        // or the whole build stays on the interpreted `Acc::update` loop
        // (mixing per-agg would change nothing — the per-row dispatch is
        // the cost being removed).
        let compiled = pir.is_some()
            && aggs
                .iter()
                .zip(&input.arg_cols)
                .all(|(a, c)| crate::pir::agg::compilable(a.func, a.distinct, c.as_deref()));
        if let Some(pc) = pir.as_deref_mut() {
            if compiled {
                any_compiled = true;
            } else {
                pc.fallback_rows += total_rows as u64;
            }
        }
        // The interpreter's DISTINCT sets hash every value's bytes.
        if !compiled && aggs.iter().any(|a| a.distinct) {
            prof.distinct_kind(IndexKind::Hashed);
        }
        let groups = match &admission {
            Some((sp, None)) if sp.enabled => {
                prof.route = "spilled";
                let mut clock = Instant::now();
                let built = build_groups_spilled(
                    &input.sel,
                    &input.key_cols,
                    &input.arg_cols,
                    set,
                    aggs,
                    compiled,
                    sp,
                    &mut prof,
                )?;
                // Partitioning through spill files and the leaf builds.
                prof.discover_ns = lap(&mut clock);
                built
            }
            _ => {
                let _forced = match &admission {
                    Some((sp, None)) => Some(sp.broker.force_reserve("group-by", est)),
                    _ => None,
                };
                build_groups(
                    &input.sel,
                    &input.key_cols,
                    &input.arg_cols,
                    set,
                    aggs,
                    workers,
                    compiled,
                    &mut prof,
                )?
            }
        };
        let mut clock = Instant::now();
        out.push(emit_groups(
            groups,
            &input.sel,
            &input.key_cols,
            &input.arg_cols,
            set,
            gid,
            out_schema,
        )?);
        prof.emit_ns = lap(&mut clock);
        profile.sets.push(prof);
    }
    if any_compiled {
        if let Some(pc) = pir {
            pc.compiled_stages += 1;
        }
    }
    let batch = match out.len() {
        1 => out.swap_remove(0),
        _ => VectorBatch::concat(out_schema, &out)?,
    };
    Ok((batch, profile))
}

/// One part's evaluated group-key and aggregate-argument columns. The
/// columns span the part's batch domain; `sel` names the rows that
/// count.
struct PartCols {
    sel: SelVec,
    key_cols: Vec<Arc<ColumnVector>>,
    arg_cols: Vec<Option<Arc<ColumnVector>>>,
}

impl PartCols {
    /// Evaluate keys and arguments once, over the batch domain (bare
    /// columns are `Arc` clones — zero copy). Computed expressions must
    /// only see selected rows, so they compact the part first.
    fn eval(part: &SelBatch, group_exprs: &[ScalarExpr], aggs: &[AggExpr]) -> Result<PartCols> {
        let args = aggs.iter().filter_map(|a| a.arg.as_ref());
        let part = compact_for(part.clone(), group_exprs.iter().chain(args));
        let key_cols = group_exprs
            .iter()
            .map(|g| eval_vector(g, &part.batch))
            .collect::<Result<Vec<_>>>()?;
        let arg_cols = aggs
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|e| eval_vector(e, &part.batch))
                    .transpose()
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(PartCols {
            sel: part.sel,
            key_cols,
            arg_cols,
        })
    }

    /// The parts as one: each key and argument column gathered through
    /// the parts' selections in a single reserved pass. Expression
    /// evaluation is row-local, so these are the columns that
    /// evaluating over the concatenated input gives.
    fn assemble(parts: &[PartCols]) -> Result<PartCols> {
        let gather = |cols: Vec<(&ColumnVector, Option<&[u32]>)>| {
            let dt = match cols.first() {
                Some((c, _)) => c.data_type(),
                None => return Err(HiveError::Execution("aggregate over no parts".into())),
            };
            ColumnVector::concat_selected(&dt, &cols).map(Arc::new)
        };
        let shape = &parts[0];
        let key_cols = (0..shape.key_cols.len())
            .map(|k| {
                gather(
                    (parts.iter())
                        .map(|p| (&*p.key_cols[k], p.sel.as_indices()))
                        .collect(),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        // Every part evaluated the same aggregates, so an argument is
        // present in all of them or in none.
        let arg_cols = (0..shape.arg_cols.len())
            .map(|a| {
                shape.arg_cols[a].as_ref().map(|_| {
                    gather(
                        (parts.iter())
                            .filter_map(|p| Some((p.arg_cols[a].as_deref()?, p.sel.as_indices())))
                            .collect(),
                    )
                })
            })
            .map(Option::transpose)
            .collect::<Result<Vec<_>>>()?;
        Ok(PartCols {
            sel: SelVec::All(parts.iter().map(|p| p.sel.len()).sum()),
            key_cols,
            arg_cols,
        })
    }
}

/// The per-group aggregate states of one build.
enum States {
    /// The compiled build's: one [`FoldOut`] per aggregate, each holding
    /// a state per group.
    Folded(Vec<FoldOut>),
    /// The interpreted build's: one accumulator row per group.
    Rows(Vec<Vec<Acc>>),
}

/// One grouping set's groups — or one build partition's — in first-seen
/// order.
struct Built {
    /// Selected position each group was first seen at, ascending.
    first_pos: Vec<usize>,
    states: States,
}

/// One grouping set folded part by part: the merged groups, the key
/// rows and columns their first-seen positions index, and per aggregate
/// the column its states finish against (MIN/MAX: the parts' winners).
struct PartsFold {
    groups: Built,
    key_rows: SelVec,
    key_cols: Vec<Arc<ColumnVector>>,
    arg_cols: Vec<Option<Arc<ColumnVector>>>,
}

/// Fold one grouping set part by part, without assembling the input:
/// each part discovers its own groups (serially inside the part) and
/// folds the compiled accumulators over them, in parallel across
/// `workers`; the part states then merge **serially in part order**,
/// which reproduces the serial build's first-seen group order and, for
/// every [`crate::pir::agg::mergeable`] state, its value. A key-less set
/// has one state per part and discovers nothing.
///
/// Returns `None` when this set should take the assembled build
/// instead: a SUM(Decimal) whose magnitudes leave `i128` (the serial
/// fold may have overflowed on some prefix and must run to surface its
/// exact error or value), or a key that barely reduces — when the
/// first part keeps more than one group per [`MIN_REDUCTION`] rows,
/// merging every part's groups costs more than the hash-partitioned
/// build saves.
fn fold_parts(
    parts: &[PartCols],
    set: &[usize],
    aggs: &[AggExpr],
    continued: &[bool],
    workers: usize,
    prof: &mut SetProfile,
) -> Result<Option<PartsFold>> {
    use crate::pir::agg::{assigned, fold, fold_keyless, fold_keyless_continued};
    /// One part's states: `states` groups, the batch row each was first
    /// seen at (none for a key-less set — its one state has no key to
    /// gather), and per aggregate one state per group (none for an
    /// aggregate folded across the parts).
    struct PartFold {
        states: usize,
        first_rows: Vec<u32>,
        folds: Vec<Option<FoldOut>>,
    }
    let fold_part = |part: &PartCols| -> Result<(PartFold, SetProfile)> {
        let args = aggs.iter().zip(&part.arg_cols).zip(continued);
        let mut prof = SetProfile::default();
        let (d, mut clock) = match set.is_empty() {
            true => (None, Instant::now()),
            false => (
                Some(discover(&part.sel, &part.key_cols, set, &mut prof)?),
                Instant::now(),
            ),
        };
        let states = d.as_ref().map_or(1, |d| d.first_pos.len());
        let folds = args
            .map(|((a, c), &continued)| match &d {
                None => (!continued)
                    .then(|| fold_keyless(a.func, c.as_deref(), &part.sel, true))
                    .transpose(),
                Some(d) => {
                    let pairs = assigned(&d.rows_idx, &d.assign);
                    fold(a.func, c.as_deref(), pairs, states, true).map(Some)
                }
            })
            .collect::<Result<_>>()?;
        prof.fold_ns = lap(&mut clock);
        let first_rows = (d.iter().flat_map(|d| &d.first_pos))
            .map(|&pos| part.sel.index(pos) as u32)
            .collect();
        let fold = PartFold {
            states,
            first_rows,
            folds,
        };
        Ok((fold, prof))
    };
    let Some((probe, rest)) = parts.split_first() else {
        return Ok(None);
    };
    let (first, step) = fold_part(probe)?;
    prof.add(step);
    if first.first_rows.len() * MIN_REDUCTION > probe.sel.len() {
        return Ok(None);
    }
    let mut clock = Instant::now();
    let (rest, steps): (Vec<PartFold>, Vec<SetProfile>) =
        crate::par::parallel_map(workers, rest.len(), |p| fold_part(&rest[p]))?
            .into_iter()
            .unzip();
    prof.absorb(steps, lap(&mut clock));
    let mut partials = vec![first];
    partials.extend(rest);

    // Lay every part's group keys end to end, in part order, and
    // discover the groups of *that*: row r's group is the merged group
    // of the part-local group r stands for, and first-seen order is the
    // serial build's. (Key-less: one state per part, all group 0.)
    let (first_pos, merged_of, key_cols) = if set.is_empty() {
        (vec![0], vec![0u32; partials.len()], probe.key_cols.clone())
    } else {
        let mut key_cols = probe.key_cols.clone();
        for &k in set {
            let cols: Vec<(&ColumnVector, Option<&[u32]>)> = parts
                .iter()
                .zip(&partials)
                .map(|(part, fold)| (&*part.key_cols[k], Some(&fold.first_rows[..])))
                .collect();
            let dt = probe.key_cols[k].data_type();
            key_cols[k] = Arc::new(ColumnVector::concat_selected(&dt, &cols)?);
        }
        let local_groups = partials.iter().map(|p| p.states).sum();
        let mut merged = SetProfile::default();
        let d = discover(&SelVec::All(local_groups), &key_cols, set, &mut merged)?;
        prof.groups = combine(prof.groups, merged.groups);
        (d.first_pos, d.assign, key_cols)
    };
    let ngroups = first_pos.len();

    // Merge aggregate by aggregate, each over its states in part order.
    let part_states: Vec<usize> = partials.iter().map(|p| p.states).collect();
    let mut per_part: Vec<std::vec::IntoIter<Option<FoldOut>>> =
        (partials.into_iter().map(|p| p.folds.into_iter())).collect();
    let mut folds = Vec::with_capacity(aggs.len());
    let mut arg_cols = Vec::with_capacity(aggs.len());
    for (ai, a) in aggs.iter().enumerate() {
        let mut states = per_part.iter_mut().filter_map(|p| p.next().flatten());
        if continued[ai] {
            let args: Vec<(Option<&ColumnVector>, &SelVec)> = (parts.iter())
                .map(|p| (p.arg_cols[ai].as_deref(), &p.sel))
                .collect();
            states.for_each(drop);
            folds.push(fold_keyless_continued(a.func, &args)?);
            arg_cols.push(None);
            continue;
        }
        if matches!(a.func, AggFunc::Min | AggFunc::Max) {
            // A MIN/MAX state names rows of its own part's argument:
            // gather each part's winners, lay them end to end like the
            // keys, and fold *them* — row r is part-local group r, of
            // merged group `merged_of[r]`. Strictly better replaces, so
            // the earlier part keeps a tie, as in the serial fold.
            let Some(dt) = probe.arg_cols[ai].as_ref().map(|c| c.data_type()) else {
                return Ok(None);
            };
            let winners = (parts.iter().zip(states))
                .map(|(part, f)| f.finish(part.arg_cols[ai].as_deref(), &dt))
                .collect::<Result<Vec<_>>>()?;
            let cols: Vec<(&ColumnVector, Option<&[u32]>)> =
                winners.iter().map(|w| (&**w, None)).collect();
            let winners = Arc::new(ColumnVector::concat_selected(&dt, &cols)?);
            let pairs = (merged_of.iter().enumerate()).map(|(r, &g)| (r, g as usize));
            folds.push(fold(a.func, Some(&winners), pairs, ngroups, false)?);
            arg_cols.push(Some(winners));
            continue;
        }
        // COUNT and SUM states add up. The first part's groups are all
        // new, in order, so its states are the merged states' prefix as
        // they stand.
        let Some(mut acc) = states.next() else {
            return Ok(None);
        };
        acc.grow(ngroups);
        let mut maps = &merged_of[part_states[0]..];
        for (f, &n) in states.zip(&part_states[1..]) {
            let (map, later) = maps.split_at(n);
            acc.merge(f, map)?;
            maps = later;
        }
        let Some(acc) = acc.close_partial() else {
            return Ok(None);
        };
        folds.push(acc);
        arg_cols.push(None);
    }
    prof.merge_ns += lap(&mut clock);
    Ok(Some(PartsFold {
        groups: Built {
            first_pos,
            states: States::Folded(folds),
        },
        key_rows: SelVec::All(merged_of.len()),
        key_cols,
        arg_cols,
    }))
}

/// The parts route is for keys that reduce: the first part must keep at
/// most one group per this many rows.
const MIN_REDUCTION: usize = 8;

/// One grouping set's output batch, columnar: each group key is one
/// typed gather of its key column at the groups' first-seen rows (a
/// `Dict` key stays `Dict` over the same dictionary; a key this set
/// aggregates away gathers all-NULL), each aggregate finishes its
/// per-group states into one column — a compiled build's state columns
/// directly ([`FoldOut::finish`], against the aggregate's argument in
/// `arg_cols`), the interpreter's accumulator rows through a `Value`
/// each — and every column is aligned to the declared output type.
fn emit_groups(
    groups: Built,
    sel: &SelVec,
    key_cols: &[Arc<ColumnVector>],
    arg_cols: &[Option<Arc<ColumnVector>>],
    set: &[usize],
    gid: Option<i64>,
    out_schema: &hive_common::Schema,
) -> Result<VectorBatch> {
    let n = groups.first_pos.len();
    let first_rows: Vec<u32> = if set.is_empty() {
        Vec::new()
    } else {
        (groups.first_pos.iter())
            .map(|&pos| sel.index(pos) as u32)
            .collect()
    };
    let absent = vec![NULL_INDEX; if set.len() < key_cols.len() { n } else { 0 }];
    let want = |c: usize| &out_schema.field(c).data_type;
    let mut cols: Vec<Arc<ColumnVector>> = Vec::with_capacity(out_schema.len());
    for (k, key) in key_cols.iter().enumerate() {
        let col = if set.contains(&k) {
            key.take(&first_rows)
        } else {
            key.take_or_null(&absent)
        };
        cols.push(align_column(Arc::new(col), want(k))?);
    }
    match groups.states {
        States::Folded(folds) => {
            for (fold, arg) in folds.into_iter().zip(arg_cols) {
                cols.push(fold.finish(arg.as_deref(), want(cols.len()))?);
            }
        }
        States::Rows(rows) => {
            let mut states: Vec<std::vec::IntoIter<Acc>> =
                rows.into_iter().map(Vec::into_iter).collect();
            for _ in arg_cols {
                let finished = states
                    .iter_mut()
                    .filter_map(Iterator::next)
                    .map(Acc::finish)
                    .collect::<Result<Vec<Value>>>()?;
                cols.push(Arc::new(ColumnVector::from_values(
                    &finished,
                    want(cols.len()),
                )?));
            }
        }
    }
    if let Some(gid) = gid {
        let col = ColumnVector::BigInt(vec![gid; n], None);
        cols.push(align_column(Arc::new(col), want(cols.len()))?);
    }
    VectorBatch::from_arcs(out_schema.clone(), cols, n)
}

/// The groups of one build partition, in first-seen order, with every
/// row's assignment — `rows_idx[j]` is a batch row, `assign[j]` its
/// group, in ascending selected-position order.
struct Discovery {
    /// Selected position each group was first seen at.
    first_pos: Vec<usize>,
    rows_idx: Vec<u32>,
    assign: Vec<u32>,
}

impl Discovery {
    /// Room for `rows` selected positions.
    fn for_rows(rows: usize) -> Discovery {
        Discovery {
            first_pos: Vec::new(),
            rows_idx: Vec::with_capacity(rows),
            assign: Vec::with_capacity(rows),
        }
    }

    /// Record that selected position `pos` (batch row `i`) belongs to
    /// group `g` — the next unused id for a group not seen before.
    #[inline]
    fn push(&mut self, pos: usize, i: usize, g: usize) {
        if g == self.first_pos.len() {
            self.first_pos.push(pos);
        }
        self.rows_idx.push(i as u32);
        self.assign.push(g as u32);
    }
}

/// One grouping set's key columns, classified once by the key layer.
fn key_side<'a>(key_cols: &'a [Arc<ColumnVector>], set: &[usize]) -> KeySide<'a> {
    let cols: Vec<&ColumnVector> = set.iter().map(|&k| key_cols[k].as_ref()).collect();
    KeySide::group(&cols)
}

/// Discover the groups of one partition of a partitioned build: the
/// selected positions of partition `p` (of `nparts`) in every chunk's
/// [`Runs`], read in chunk order — ascending position order. Group id =
/// the key layer's index entry id, dense in insertion order, so aligned
/// with `first_pos`.
fn discover_partition(
    sel: &SelVec,
    side: &KeySide<'_>,
    keys: &RowKeys,
    (runs, p, nparts): (&[Runs], usize, usize),
    prof: &mut SetProfile,
) -> Result<Discovery> {
    let mut clock = Instant::now();
    let rows: usize = runs.iter().map(|r| r.run(p).len()).sum();
    let mut d = Discovery::for_rows(rows);
    let mut groups = Grouper::new(side, nparts);
    for run in runs {
        groups.assign(keys, Some(run.run(p)), |pos, g, _| {
            d.push(pos, sel.index(pos), g as usize)
        })?;
    }
    prof.discover_ns += lap(&mut clock);
    Ok(d)
}

/// Serial discovery over a whole selection, through the key layer's
/// index for the set's keys — dense where the selected rows allow it.
fn discover(
    sel: &SelVec,
    key_cols: &[Arc<ColumnVector>],
    set: &[usize],
    prof: &mut SetProfile,
) -> Result<Discovery> {
    let mut clock = Instant::now();
    let side = key_side(key_cols, set).dense_over(sel);
    prof.groups = combine(prof.groups, side.kind());
    let mut d = Discovery::for_rows(sel.len());
    let mut groups = Grouper::new(&side, 1);
    side.key_chunks(sel, 0, sel.len(), |at, keys| {
        prof.keys_ns += lap(&mut clock);
        groups.assign(keys, None, |r, g, _| {
            d.push(at + r, sel.index(at + r), g as usize)
        })?;
        prof.discover_ns += lap(&mut clock);
        Ok(())
    })?;
    Ok(d)
}

/// Accumulate one partition's discovered groups: a compiled fold per
/// aggregate over the recorded assignment — no per-row `Value`
/// materialization or dispatch, DISTINCT as a row filter in front of
/// the same kernel — or the interpreted `Acc::update` loop in the same
/// row order.
fn accumulate(
    d: Discovery,
    aggs: &[AggExpr],
    arg_cols: &[Option<Arc<ColumnVector>>],
    compiled: bool,
    prof: &mut SetProfile,
) -> Result<Built> {
    let (ngroups, mut clock) = (d.first_pos.len(), Instant::now());
    let (rows, assign) = (&d.rows_idx, &d.assign);
    let states = if compiled {
        let mut folds = Vec::with_capacity(aggs.len());
        for (a, c) in aggs.iter().zip(arg_cols) {
            let (fold, kind) = crate::pir::agg::fold_assigned(
                a.func,
                a.distinct,
                c.as_deref(),
                rows,
                assign,
                ngroups,
            )?;
            if let Some(kind) = kind {
                prof.distinct_kind(kind);
            }
            folds.push(fold);
        }
        States::Folded(folds)
    } else {
        let mut rows: Vec<Vec<Acc>> = (0..ngroups)
            .map(|_| aggs.iter().map(Acc::new).collect())
            .collect();
        for (&i, &g) in d.rows_idx.iter().zip(&d.assign) {
            for (acc, arg) in rows[g as usize].iter_mut().zip(arg_cols) {
                let v = arg.as_ref().map(|c| c.get(i as usize));
                acc.update(v.as_ref())?;
            }
        }
        States::Rows(rows)
    };
    prof.fold_ns += lap(&mut clock);
    Ok(Built {
        first_pos: d.first_pos,
        states,
    })
}

/// A key-less aggregate's one group: each accumulator folded straight
/// over the selection — no hashes, no table, no assignment vector.
fn fold_keyless_group(
    sel: &SelVec,
    arg_cols: &[Option<Arc<ColumnVector>>],
    aggs: &[AggExpr],
    compiled: bool,
    prof: &mut SetProfile,
) -> Result<Built> {
    let mut clock = Instant::now();
    let states = if compiled {
        let mut folds = Vec::with_capacity(aggs.len());
        for (a, c) in aggs.iter().zip(arg_cols) {
            let (arg, mut rows) = (c.as_deref(), std::borrow::Cow::Borrowed(sel));
            if a.distinct {
                let col =
                    arg.ok_or_else(|| HiveError::Execution("DISTINCT without an argument".into()))?;
                let (kind, firsts, _) =
                    crate::pir::agg::first_occurrences(col, &sel.to_indices(), None)?;
                prof.distinct_kind(kind);
                rows = std::borrow::Cow::Owned(SelVec::Idx(firsts));
            }
            folds.push(crate::pir::agg::fold_keyless(a.func, arg, &rows, false)?);
        }
        States::Folded(folds)
    } else {
        let mut row: Vec<Acc> = aggs.iter().map(Acc::new).collect();
        for i in sel.iter() {
            for (acc, arg) in row.iter_mut().zip(arg_cols) {
                let v = arg.as_ref().map(|c| c.get(i));
                acc.update(v.as_ref())?;
            }
        }
        States::Rows(vec![row])
    };
    prof.fold_ns += lap(&mut clock);
    Ok(Built {
        first_pos: vec![0],
        states,
    })
}

/// Build the aggregation state for one grouping set, returning groups
/// ordered by their first-seen selected position — exactly the order
/// the serial single-pass build discovers them in, for any `workers`
/// count. Iteration runs over selected positions `0..sel.len()`; the
/// key/arg columns span the batch domain and are read at `sel.index(p)`.
#[allow(clippy::too_many_arguments)]
fn build_groups(
    sel: &SelVec,
    key_cols: &[Arc<ColumnVector>],
    arg_cols: &[Option<Arc<ColumnVector>>],
    set: &[usize],
    aggs: &[AggExpr],
    workers: usize,
    compiled: bool,
    prof: &mut SetProfile,
) -> Result<Built> {
    if set.is_empty() {
        return fold_keyless_group(sel, arg_cols, aggs, compiled, prof);
    }
    let nparts = crate::keys::partitions_for(sel.len());
    if workers <= 1 || nparts <= 1 {
        let d = discover(sel, key_cols, set, prof)?;
        return accumulate(d, aggs, arg_cols, compiled, prof);
    }
    // One build per partition. A group's rows all share a key, so they
    // live in exactly one partition and fold in position order; each
    // position is routed once, by the chunk that prepared its key.
    let mut clock = Instant::now();
    let side = key_side(key_cols, set).dense_over(sel);
    (prof.groups, prof.partitions) = (combine(prof.groups, side.kind()), nparts);
    prof.keys_ns += lap(&mut clock);
    let (keys, runs, [keys_ns, scatter_ns]) = side.keys_par(sel, workers, nparts)?;
    let split = SetProfile {
        keys_ns,
        scatter_ns,
        ..Default::default()
    };
    prof.absorb(vec![split], lap(&mut clock));
    let (parts, steps): (Vec<Built>, Vec<SetProfile>) =
        crate::par::parallel_map(workers, nparts, |p| {
            let mut step = SetProfile::default();
            let d = discover_partition(sel, &side, &keys, (&runs, p, nparts), &mut step)?;
            Ok((accumulate(d, aggs, arg_cols, compiled, &mut step)?, step))
        })?
        .into_iter()
        .unzip();
    prof.absorb(steps, lap(&mut clock));
    let order = merge_first_seen(&parts, sel.len());
    let built = merge_partitions(parts, aggs.len(), order);
    prof.merge_ns += lap(&mut clock);
    built
}

/// The partitions of a hash-partitioned build as one build. Their
/// groups are disjoint, so the serial discovery order is theirs merged
/// by first-seen position — `(first_pos, order)`, each group's first
/// position and `(partition, group within it)` — and every group's
/// state is picked from its partition as it stands: nothing is
/// combined.
fn merge_partitions(
    parts: Vec<Built>,
    naggs: usize,
    (first_pos, order): (Vec<usize>, Vec<(u32, u32)>),
) -> Result<Built> {
    // Per aggregate, the partitions' state columns; per partition, its
    // accumulator rows. A build is one or the other throughout.
    let mut folded: Vec<Vec<FoldOut>> = (0..naggs).map(|_| Vec::new()).collect();
    let mut rows: Vec<Vec<Vec<Acc>>> = Vec::new();
    for part in parts {
        match part.states {
            States::Folded(folds) => {
                for (col, f) in folded.iter_mut().zip(folds) {
                    col.push(f);
                }
            }
            States::Rows(r) => rows.push(r),
        }
    }
    let states = if rows.is_empty() {
        let pick = |col: &Vec<FoldOut>| FoldOut::interleave(col, &order);
        States::Folded(folded.iter().map(pick).collect::<Result<_>>()?)
    } else {
        let take = |&(p, l): &(u32, u32)| std::mem::take(&mut rows[p as usize][l as usize]);
        States::Rows(order.iter().map(take).collect())
    };
    Ok(Built { first_pos, states })
}

/// The partitions' groups in first-seen order: each group's first
/// position and `(partition, group within it)`. The lists are ascending
/// and disjoint, so one pass over the positions merges them: every
/// group's partition is written at its first position, then read back
/// in position order. A partition's groups start in ascending order, so
/// the `l`-th one met is its group `l`.
fn merge_first_seen(parts: &[Built], rows: usize) -> (Vec<usize>, Vec<(u32, u32)>) {
    // A position's byte names the partition whose group starts there
    // (a build has at most `keys::MAX_PARTITIONS` partitions).
    const NONE: u8 = u8::MAX;
    debug_assert!(parts.len() < NONE as usize);
    let groups: usize = parts.iter().map(|p| p.first_pos.len()).sum();
    let mut at = vec![NONE; rows];
    for (p, part) in parts.iter().enumerate() {
        for &pos in &part.first_pos {
            at[pos] = p as u8;
        }
    }
    let mut next = vec![0u32; parts.len()];
    let mut merged = (Vec::with_capacity(groups), Vec::with_capacity(groups));
    for (pos, &p) in at.iter().enumerate().filter(|(_, &p)| p != NONE) {
        merged.0.push(pos);
        merged.1.push((p as u32, next[p as usize]));
        next[p as usize] += 1;
    }
    merged
}

/// The partitions' groups in first-seen order by sorting them: what a
/// spilled build merges its leaves with, whose number a byte per
/// position ([`merge_first_seen`]) does not bound.
fn merge_sorted(parts: &[Built]) -> (Vec<usize>, Vec<(u32, u32)>) {
    let mut groups: Vec<(usize, (u32, u32))> = (parts.iter().enumerate())
        .flat_map(|(p, part)| {
            (part.first_pos.iter().enumerate()).map(move |(l, &pos)| (pos, (p as u32, l as u32)))
        })
        .collect();
    groups.sort_unstable_by_key(|&(pos, _)| pos);
    groups.into_iter().unzip()
}

/// The spilling build for one grouping set: the selected positions are
/// partitioned through spill files by their key hash ([`crate::spill::solve`])
/// until a partition's modeled state fits the working budget, and each
/// leaf is the in-memory build over its positions — the same key
/// shape, the same discovery, the same compiled or interpreted fold.
///
/// A group's positions all share a key hash, so they land in one leaf
/// in ascending order: its states fold exactly as in the serial build
/// (f64 sums, Welford variance and DISTINCT first-seen order included),
/// and the leaves merge by first-seen position. The recursion is
/// serial, so its spill I/O replays at any worker count.
#[allow(clippy::too_many_arguments)]
fn build_groups_spilled(
    sel: &SelVec,
    key_cols: &[Arc<ColumnVector>],
    arg_cols: &[Option<Arc<ColumnVector>>],
    set: &[usize],
    aggs: &[AggExpr],
    compiled: bool,
    sp: &SpillCtx<'_>,
    prof: &mut SetProfile,
) -> Result<Built> {
    let side = key_side(key_cols, set);
    let mut leaves: Vec<Built> = Vec::new();
    crate::spill::solve(
        sp,
        "group-by-partition",
        [(&side, sel, ".agg")],
        |rows| crate::spill::estimate_agg_bytes(rows, set.len().max(1), aggs.len()),
        [(0..sel.len() as u32).collect()],
        |[run]| {
            let rows = sel.compose(&run);
            let mut step = SetProfile::default();
            let mut leaf =
                build_groups(&rows, key_cols, arg_cols, set, aggs, 1, compiled, &mut step)?;
            // The leaves' index kinds; the spilled build is timed whole.
            prof.absorb(vec![step], 0);
            // A key-less group's position is never read.
            if !set.is_empty() {
                for p in &mut leaf.first_pos {
                    *p = run[*p] as usize;
                }
            }
            leaves.push(leaf);
            Ok(())
        },
    )?;
    let order = merge_sorted(&leaves);
    merge_partitions(leaves, aggs.len(), order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{DataType, Field, Row, Schema};
    use hive_optimizer::eval::eval_scalar;
    use hive_optimizer::plan::LogicalPlan;
    use std::sync::Arc;

    fn input() -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new("k", DataType::String),
            Field::new("v", DataType::Int),
        ]);
        VectorBatch::from_rows(
            &schema,
            &[
                Row::new(vec![Value::String("a".into()), Value::Int(1)]),
                Row::new(vec![Value::String("a".into()), Value::Int(2)]),
                Row::new(vec![Value::String("b".into()), Value::Int(10)]),
                Row::new(vec![Value::String("a".into()), Value::Null]),
                Row::new(vec![Value::Null, Value::Int(5)]),
            ],
        )
        .unwrap()
    }

    fn agg_schema(
        input: &VectorBatch,
        groups: &[ScalarExpr],
        sets: &Option<Vec<Vec<usize>>>,
        aggs: &[AggExpr],
    ) -> Schema {
        let plan = LogicalPlan::Aggregate {
            input: Arc::new(LogicalPlan::Values {
                schema: input.schema().clone(),
                rows: vec![],
            }),
            group_exprs: groups.to_vec(),
            grouping_sets: sets.clone(),
            aggs: aggs.to_vec(),
        };
        plan.schema()
    }

    fn sorted_rows(b: &VectorBatch) -> Vec<String> {
        let mut v: Vec<String> = b.to_rows().iter().map(|r| r.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn group_by_with_count_sum() {
        let b = input();
        let groups = vec![ScalarExpr::Column(0)];
        let aggs = vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::Column(1)),
                distinct: false,
            },
            AggExpr {
                func: AggFunc::Count,
                arg: Some(ScalarExpr::Column(1)),
                distinct: false,
            },
        ];
        let schema = agg_schema(&b, &groups, &None, &aggs);
        let out = execute_aggregate(&b, &groups, &None, &aggs, &schema).unwrap();
        assert_eq!(
            sorted_rows(&out),
            vec![
                "NULL\t1\t5\t1", // null group
                "a\t3\t3\t2",    // count(*)=3 but count(v)=2
                "b\t1\t10\t1",
            ]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let empty = VectorBatch::from_rows(&schema, &[]).unwrap();
        let aggs = vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::Column(0)),
                distinct: false,
            },
        ];
        let out_schema = agg_schema(&empty, &[], &None, &aggs);
        let out = execute_aggregate(&empty, &[], &None, &aggs, &out_schema).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0).get(0), &Value::BigInt(0));
        assert!(out.row(0).get(1).is_null());
    }

    #[test]
    fn distinct_aggregates() {
        let b = input();
        let aggs = vec![AggExpr {
            func: AggFunc::Count,
            arg: Some(ScalarExpr::Column(1)),
            distinct: true,
        }];
        let schema = agg_schema(&b, &[], &None, &aggs);
        let out = execute_aggregate(&b, &[], &None, &aggs, &schema).unwrap();
        // Distinct non-null values of v: 1, 2, 10, 5.
        assert_eq!(out.row(0).get(0), &Value::BigInt(4));
    }

    #[test]
    fn avg_and_stddev() {
        let b = input();
        let aggs = vec![
            AggExpr {
                func: AggFunc::Avg,
                arg: Some(ScalarExpr::Column(1)),
                distinct: false,
            },
            AggExpr {
                func: AggFunc::StddevSamp,
                arg: Some(ScalarExpr::Column(1)),
                distinct: false,
            },
        ];
        let schema = agg_schema(&b, &[], &None, &aggs);
        let out = execute_aggregate(&b, &[], &None, &aggs, &schema).unwrap();
        let avg = out.row(0).get(0).as_f64().unwrap();
        assert!((avg - 4.5).abs() < 1e-9); // (1+2+10+5)/4
        let sd = out.row(0).get(1).as_f64().unwrap();
        assert!(sd > 0.0);
    }

    #[test]
    fn grouping_sets_emit_all_sets_with_gid() {
        let b = input();
        let groups = vec![ScalarExpr::Column(0)];
        let sets = Some(vec![vec![0], vec![]]); // (k), ()
        let aggs = vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }];
        let schema = agg_schema(&b, &groups, &sets, &aggs);
        let out = execute_aggregate(&b, &groups, &sets, &aggs, &schema).unwrap();
        // 3 grouped rows + 1 total row.
        assert_eq!(out.num_rows(), 4);
        let rows = sorted_rows(&out);
        assert!(rows.contains(&"NULL\t5\t1".to_string()), "{rows:?}"); // total: gid 1
        assert!(rows.contains(&"a\t3\t0".to_string()), "{rows:?}");
    }

    /// The reference: groups keyed by `Value` on column 0 in first-seen
    /// order, each folded one row at a time through its accumulators.
    fn reference_aggregate(b: &VectorBatch, aggs: &[AggExpr]) -> Vec<String> {
        let mut index: std::collections::HashMap<Value, usize> = Default::default();
        let mut groups: Vec<(Value, Vec<Acc>)> = Vec::new();
        for row in b.to_rows() {
            let key = row.get(0).clone();
            let g = *index.entry(key.clone()).or_insert_with(|| {
                groups.push((key, aggs.iter().map(Acc::new).collect()));
                groups.len() - 1
            });
            for (acc, a) in groups[g].1.iter_mut().zip(aggs) {
                let v = a
                    .arg
                    .as_ref()
                    .map(|e| eval_scalar(e, row.values()).unwrap());
                acc.update(v.as_ref()).unwrap();
            }
        }
        (groups.into_iter())
            .map(|(key, accs)| {
                let mut vals = vec![key];
                vals.extend(accs.into_iter().map(|a| a.finish().unwrap()));
                Row::new(vals).to_string()
            })
            .collect()
    }

    /// [`execute_aggregate_parts`] over one part grouped on column 0, as display rows,
    /// interpreted (`pir = false`) or compiled.
    fn run_grouped(
        sb: &SelBatch,
        aggs: &[AggExpr],
        workers: usize,
        pir: bool,
        spill: Option<&SpillCtx<'_>>,
    ) -> Vec<String> {
        let groups = vec![ScalarExpr::Column(0)];
        let out_schema = agg_schema(&sb.batch, &groups, &None, aggs);
        let mut pc = crate::pir::PirCounters::default();
        let out = execute_aggregate_parts(
            std::slice::from_ref(sb),
            &groups,
            &None,
            aggs,
            &out_schema,
            workers,
            spill,
            pir.then_some(&mut pc),
        )
        .unwrap()
        .0;
        out.to_rows().iter().map(|r| r.to_string()).collect()
    }

    #[test]
    fn parallel_aggregate_is_byte_identical() {
        // Floating-point aggregates (avg, stddev) are fold-order
        // sensitive, so byte-identical output across worker counts is a
        // strong check that the partitioned build preserves row order.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Double),
        ]);
        let rows: Vec<Row> = (0..12_000)
            .map(|i| {
                let k = if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 37 % 97)
                };
                Row::new(vec![k, Value::Double(i as f64 * 0.25 - 100.0)])
            })
            .collect();
        let b = VectorBatch::from_rows(&schema, &rows).unwrap();
        let aggs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::StddevSamp,
        ]
        .into_iter()
        .map(|func| AggExpr {
            func,
            arg: Some(ScalarExpr::Column(1)),
            distinct: false,
        })
        .collect::<Vec<_>>();
        // Every worker count, interpreted or compiled, must reproduce
        // the reference byte for byte.
        let want = reference_aggregate(&b, &aggs);
        assert_eq!(want.len(), 98); // 97 int keys + NULL group
        let sb = SelBatch::from_batch(b);
        for workers in [1, 2, 8] {
            for pir in [false, true] {
                let got = run_grouped(&sb, &aggs, workers, pir, None);
                assert_eq!(got, want, "{workers} workers, pir {pir} diverged");
            }
        }
    }

    #[test]
    fn distinct_aggregates_match_the_reference_at_any_worker_count() {
        // DISTINCT SUM over doubles is fold-order sensitive: identical
        // output across worker counts pins the shared first-seen dedup
        // order.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Double),
        ]);
        let rows: Vec<Row> = (0..4_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 7),
                    Value::Double((i * 31 % 113) as f64 * 0.125 - 3.0),
                ])
            })
            .collect();
        let b = VectorBatch::from_rows(&schema, &rows).unwrap();
        let aggs: Vec<AggExpr> = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg]
            .into_iter()
            .map(|func| AggExpr {
                func,
                arg: Some(ScalarExpr::Column(1)),
                distinct: true,
            })
            .collect();
        let want = reference_aggregate(&b, &aggs);
        let sb = SelBatch::from_batch(b);
        for workers in [1, 4] {
            for pir in [false, true] {
                let got = run_grouped(&sb, &aggs, workers, pir, None);
                assert_eq!(got, want, "{workers} workers, pir {pir} diverged");
            }
        }
    }

    #[test]
    fn spilled_aggregate_is_byte_identical() {
        use crate::membroker::MemoryBroker;
        use hive_dfs::{DfsPath, DistFs};
        use std::sync::atomic::AtomicU64;
        // Order-sensitive aggregates (f64 sum/avg/stddev + DISTINCT
        // sum) over many groups: the partitioned spilling build must
        // reproduce the reference byte for byte.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Double),
        ]);
        let rows: Vec<Row> = (0..12_000)
            .map(|i| {
                let k = if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 37 % 97)
                };
                Row::new(vec![k, Value::Double(i as f64 * 0.25 - 100.0)])
            })
            .collect();
        let b = VectorBatch::from_rows(&schema, &rows).unwrap();
        let mut aggs: Vec<AggExpr> = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::StddevSamp,
        ]
        .into_iter()
        .map(|func| AggExpr {
            func,
            arg: Some(ScalarExpr::Column(1)),
            distinct: false,
        })
        .collect();
        aggs.push(AggExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::Column(1)),
            distinct: true,
        });
        let want = reference_aggregate(&b, &aggs);
        let sb = SelBatch::from_batch(b);
        let fs = DistFs::new();
        let broker = MemoryBroker::with_budget(16 * 1024);
        let ops = AtomicU64::new(0);
        let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q0"), &broker, true, &ops);
        let got = run_grouped(&sb, &aggs, 1, false, Some(&sp));
        assert_eq!(got, want, "spilled build diverged");
        assert!(sp.stats.bytes_written() > 0, "group-by never spilled");
        assert!(
            fs.list_files_recursive(&DfsPath::new("/tmp/spill"))
                .is_empty(),
            "spill files all deleted"
        );
        assert_eq!(broker.reserved(), 0, "all grants released");
    }

    #[test]
    fn parts_route_takes_keys_that_reduce_and_leaves_the_rest() {
        let schema = Schema::new(vec![
            Field::new("few", DataType::Int),
            Field::new("many", DataType::Int),
            Field::new("v", DataType::BigInt),
        ]);
        let parts: Vec<PartCols> = (0..3)
            .map(|p| {
                let rows: Vec<Row> = (0..1000)
                    .map(|i| {
                        Row::new(vec![
                            Value::Int(i % 7),
                            Value::Int(p * 1000 + i),
                            Value::BigInt(i as i64),
                        ])
                    })
                    .collect();
                let batch = VectorBatch::from_rows(&schema, &rows).unwrap();
                let keys = [ScalarExpr::Column(0), ScalarExpr::Column(1)];
                let aggs = sum_of(2);
                PartCols::eval(&SelBatch::from_batch(batch), &keys, &aggs).unwrap()
            })
            .collect();
        let aggs = sum_of(2);
        // Seven groups a part: merged part by part, in first-seen order.
        let merged = fold_parts(&parts, &[0], &aggs, &[false], 2, &mut SetProfile::default())
            .unwrap()
            .expect("a key that reduces takes the parts route");
        assert_eq!(merged.groups.first_pos, (0..7).collect::<Vec<_>>());
        // A group per row: merging 3 000 one-row groups would cost more
        // than the partitioned build over the assembled columns.
        assert!(
            fold_parts(&parts, &[1], &aggs, &[false], 2, &mut SetProfile::default())
                .unwrap()
                .is_none()
        );
        // No keys: one state per part, nothing to discover.
        let merged = fold_parts(&parts, &[], &aggs, &[false], 2, &mut SetProfile::default())
            .unwrap()
            .unwrap();
        let total: i64 = 3 * (0..1000).sum::<i64>();
        assert_eq!(merged.groups.first_pos, vec![0]);
        let States::Folded(mut folds) = merged.groups.states else {
            panic!("the parts route folds compiled states");
        };
        let sum = folds.remove(0).finish(None, &DataType::BigInt).unwrap();
        assert_eq!(*sum, ColumnVector::BigInt(vec![total], None));
    }

    /// Each grouping set's profile names the route it took, the kind of
    /// its group index and of its DISTINCT filter, and its partitions;
    /// a keyed build spends time keying, discovering and folding.
    #[test]
    fn profile_records_the_route() {
        let rows = 20_000;
        let schema = Schema::new(vec![
            Field::new("category", DataType::String),
            Field::new("state", DataType::String),
            Field::new("wide", DataType::BigInt),
            Field::new("v", DataType::Int),
        ]);
        let dict = |entries: &[&str], stride: usize| {
            let entries = Arc::new(entries.iter().map(|e| e.to_string()).collect::<Vec<_>>());
            let codes = (0..rows)
                .map(|i| (i * stride % entries.len()) as u32)
                .collect();
            ColumnVector::dict_from_codes(codes, entries, None).unwrap()
        };
        let batch = VectorBatch::new(
            schema,
            vec![
                dict(&["books", "music", "home"], 1),
                dict(&["TN", "GA", "AL", "SD"], 7),
                ColumnVector::BigInt((0..rows as i64).map(|i| (i % 50) << 40).collect(), None),
                ColumnVector::Int((0..rows as i32).map(|i| i % 97).collect(), None),
            ],
        )
        .unwrap();
        // The same rows as one part and as five.
        let whole = SelBatch::from_batch(batch.clone());
        let parts: Vec<SelBatch> = (0..5)
            .map(|p| {
                SelBatch::new(
                    batch.clone(),
                    SelVec::Idx((p * 4000..(p + 1) * 4000).collect()),
                )
                .unwrap()
            })
            .collect();
        let sum = sum_of(3);
        let distinct = vec![AggExpr {
            func: AggFunc::Count,
            arg: Some(ScalarExpr::Column(3)),
            distinct: true,
        }];
        let profile = |parts: &[SelBatch], groups: &[usize], sets, aggs: &[AggExpr]| {
            let groups: Vec<ScalarExpr> = groups.iter().map(|&k| ScalarExpr::Column(k)).collect();
            let out = agg_schema(&batch, &groups, &sets, aggs);
            let mut pc = crate::pir::PirCounters::default();
            let run =
                execute_aggregate_parts(parts, &groups, &sets, aggs, &out, 2, None, Some(&mut pc));
            run.unwrap().1.sets
        };
        let routes = |sets: &[SetProfile]| sets.iter().map(SetProfile::route).collect::<Vec<_>>();
        // Two dictionaries: dense, part by part or assembled in two
        // partitions (20 000 rows), with a dense DISTINCT filter.
        assert_eq!(
            routes(&profile(&parts, &[0, 1], None, &sum)),
            ["dense/parts/1"]
        );
        let sets = profile(std::slice::from_ref(&whole), &[0, 1], None, &distinct);
        assert_eq!(routes(&sets), ["dense/assembled/2"]);
        assert_eq!(sets[0].distinct, Some(IndexKind::Dense));
        // A key too wide for the slot rule stays hashed.
        assert_eq!(
            routes(&profile(&parts, &[2], None, &sum)),
            ["hashed/parts/1"]
        );
        let sets = profile(&[whole], &[2], None, &sum);
        assert_eq!(routes(&sets), ["hashed/assembled/2"]);
        assert_eq!(sets[0].distinct, None);
        // ROLLUP: every set has its row, the empty one key-less.
        let rollup = Some(vec![vec![0, 1], vec![0], vec![]]);
        let sets = profile(&parts, &[0, 1], rollup, &sum);
        assert_eq!(
            routes(&sets),
            ["dense/parts/1", "dense/parts/1", "keyless/keyless/1"]
        );
        for set in &sets {
            let keyed = set.keys_ns + set.discover_ns;
            assert!(set.groups == IndexKind::Keyless || keyed > 0, "{set:?}");
            assert!(set.fold_ns > 0 && set.emit_ns > 0, "{set:?}");
        }
    }

    fn sum_of(col: usize) -> Vec<AggExpr> {
        vec![AggExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::Column(col)),
            distinct: false,
        }]
    }
}
