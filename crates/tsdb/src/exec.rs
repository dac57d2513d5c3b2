//! Parallel sharded query executor.
//!
//! Determinism contract
//! --------------------
//! `run` with any [`ExecMode`] returns results **bit-identical** to the
//! sequential reference executor ([`crate::query::execute`]), for every
//! query and every thread count. The differential test harness
//! (`tests/differential.rs`) pins this. Three execution strategies, chosen
//! per plan:
//!
//! * **Raw scan** (no aggregates): each shard emits its rows as a run
//!   sorted by the canonical `(timestamp, series id)` key; runs are k-way
//!   merged. Keys are unique (duplicate timestamps within a series are
//!   LWW-merged at insert; a series lives on exactly one shard), so the
//!   merged order equals the oracle's stable sort by timestamp with
//!   ascending-id tie-break.
//! * **Exact partial aggregation** (`min`/`max`/`count`/`first`/`last` and
//!   raw fields only): shards fold partial accumulators per time bucket in
//!   any order — these functions admit order-free merges once ties are
//!   resolved by the canonical key. Ties matter for bit-identity:
//!   `-0.0 == 0.0` yet the bit patterns differ, and the oracle keeps the
//!   first occurrence in canonical order, so partials carry the key at
//!   which their current winner was set and merges prefer the smaller key
//!   on equal values. NaN never wins a `<`/`>` comparison, matching the
//!   oracle's fold.
//! * **Ordered fold** (`sum`/`mean`/`stddev`/`median` present): floating
//!   addition is not associative, so per-shard partial sums would drift
//!   from the oracle by reassociation. Instead shards extract and sort
//!   `(key, projected values)` runs in parallel; the merge then feeds the
//!   *same* [`Accumulator`]s in the *same* canonical order as the oracle —
//!   the identical arithmetic sequence, hence identical bits, including
//!   NaN propagation. Bucket keys are non-decreasing along the merged
//!   order, so grouping is run-detection instead of a map lookup per row.

use crate::aggregate::{Accumulator, AggregateFn};
use crate::error::TsdbError;
use crate::query::{self, Projection, Query, QueryPlan, QueryResult, ResultRow};
use crate::series::SeriesId;
use crate::storage::{MeasurementView, Storage};
use crate::value::FieldValue;
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Canonical row key: `(timestamp, series id)`. Unique across a query's
/// scanned rows, totally ordered, and equal to the oracle's emission order.
pub(crate) type RowKey = (i64, u64);

/// Sentinel above every real key (`range` is end-exclusive, so a scanned
/// row never has `timestamp == i64::MAX`).
pub(crate) const KEY_SENTINEL: RowKey = (i64::MAX, u64::MAX);

/// How a query is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The original single-threaded executor, kept as the reference
    /// implementation (the oracle of the differential harness).
    Sequential,
    /// Sharded executor with exactly this many worker threads (minimum 1;
    /// one thread scans shards inline without spawning).
    Parallel(usize),
}

impl Default for ExecMode {
    /// Parallel over the machine's available parallelism. Results are
    /// identical for every thread count, so an environment-dependent
    /// default is safe.
    fn default() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecMode::Parallel(n)
    }
}

impl ExecMode {
    /// Worker thread count this mode uses.
    pub fn threads(&self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel(n) => (*n).max(1),
        }
    }
}

/// Work accounting for one executed query (exported as `tsdb.query.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Executed on the sharded (parallel) path.
    pub parallel: bool,
    /// Worker threads used.
    pub threads: usize,
    /// Shards holding at least one matching series.
    pub shards_scanned: u64,
    /// Rows scanned across all shards (after time-range narrowing).
    pub rows_scanned: u64,
    /// Series skipped by the planner's time-bounds pruning.
    pub series_pruned: u64,
    /// Served (at least partly) from materialized rollup tiers.
    pub rollup_routed: bool,
    /// Query buckets answered from tier cells.
    pub rollup_buckets_tier: u64,
    /// Query buckets computed from raw rows (window edges, dirty tiers).
    pub rollup_buckets_raw: u64,
}

/// Execute a query in the given mode.
pub fn run(
    storage: &Storage,
    q: &Query,
    mode: ExecMode,
) -> Result<(QueryResult, ExecStats), TsdbError> {
    run_with_rollups(storage, q, mode, None)
}

/// [`run`] with optional rollup tiers: eligible aggregate queries on the
/// parallel path are routed to the coarsest covering tier (see
/// [`crate::rollup`] for the exactness envelope). Sequential mode never
/// uses tiers — it stays the pure oracle the differential harness trusts.
pub fn run_with_rollups(
    storage: &Storage,
    q: &Query,
    mode: ExecMode,
    rollups: Option<&crate::rollup::RollupStore>,
) -> Result<(QueryResult, ExecStats), TsdbError> {
    match mode {
        ExecMode::Sequential => {
            let result = query::execute(storage, q)?;
            let stats = ExecStats {
                parallel: false,
                threads: 1,
                ..ExecStats::default()
            };
            Ok((result, stats))
        }
        ExecMode::Parallel(n) => run_parallel(storage, q, n.max(1), rollups),
    }
}

fn run_parallel(
    storage: &Storage,
    q: &Query,
    threads: usize,
    rollups: Option<&crate::rollup::RollupStore>,
) -> Result<(QueryResult, ExecStats), TsdbError> {
    let (plan, view) = query::plan(storage, q)?;

    // Partition the (ascending) matching ids by their home shard; each
    // per-shard list stays ascending.
    let mut by_shard: Vec<Vec<SeriesId>> = vec![Vec::new(); storage.shard_count()];
    for &id in &plan.ids {
        by_shard[view.shard_of(id).expect("planned id is placed")].push(id);
    }
    let jobs: Vec<&[SeriesId]> = by_shard
        .iter()
        .filter(|ids| !ids.is_empty())
        .map(Vec::as_slice)
        .collect();

    let mut stats = ExecStats {
        parallel: true,
        threads,
        shards_scanned: jobs.len() as u64,
        rows_scanned: 0,
        series_pruned: plan.series_pruned as u64,
        rollup_routed: false,
        rollup_buckets_tier: 0,
        rollup_buckets_raw: 0,
    };

    // Routed aggregate queries are answered from materialized tier cells,
    // with per-bucket raw fallback for window edges and dirty buckets.
    if let Some(rs) = rollups {
        if let Some((tier_idx, interval)) = rs.route(&q.measurement, &plan) {
            stats.rollup_routed = true;
            let rows = rs.serve(
                &q.measurement,
                tier_idx,
                interval,
                &plan,
                view,
                &mut stats.rows_scanned,
                &mut stats.rollup_buckets_tier,
                &mut stats.rollup_buckets_raw,
            );
            return Ok((
                QueryResult {
                    columns: plan.columns,
                    rows,
                },
                stats,
            ));
        }
    }

    let rows = if !plan.aggregated {
        scan_rows(&plan, view, &jobs, threads, &mut stats)
    } else if exact_template(&plan.projections).is_some() {
        aggregate_exact(&plan, view, &jobs, threads, &mut stats)
    } else {
        aggregate_ordered(&plan, view, &jobs, threads, &mut stats)
    };

    Ok((
        QueryResult {
            columns: plan.columns,
            rows,
        },
        stats,
    ))
}

// ---------------------------------------------------------------------------
// Shard fan-out
// ---------------------------------------------------------------------------

/// Run `f(0..jobs)` on up to `threads` workers stealing job indices from a
/// shared counter; results land in their job's slot, so output order is
/// deterministic regardless of which worker ran which job. One thread (or
/// one job) runs inline without spawning.
fn fan_out<T, F>(threads: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    rayon::scope(|s| {
        for _ in 0..threads.min(jobs) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                *slots[i].lock() = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job index was claimed"))
        .collect()
}

/// K-way merge of runs each sorted by `key`; keys are globally unique.
fn kway_merge<T, K: Ord + Copy>(runs: Vec<Vec<T>>, key: impl Fn(&T) -> K) -> Vec<T> {
    let total = runs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::iter::Peekable<std::vec::IntoIter<T>>> =
        runs.into_iter().map(|r| r.into_iter().peekable()).collect();
    let mut out = Vec::with_capacity(total);
    loop {
        let mut best: Option<(usize, K)> = None;
        for (i, it) in iters.iter_mut().enumerate() {
            if let Some(item) = it.peek() {
                let k = key(item);
                if best.map(|(_, bk)| k < bk).unwrap_or(true) {
                    best = Some((i, k));
                }
            }
        }
        match best {
            Some((i, _)) => out.push(iters[i].next().expect("peeked")),
            None => break,
        }
    }
    out
}

fn bucket_key(bucket: Option<i64>, ts: i64) -> i64 {
    match bucket {
        Some(b) => ts.div_euclid(b) * b,
        None => 0,
    }
}

pub(crate) fn projected_field(p: &Projection) -> &str {
    match p {
        Projection::Aggregate(_, f) | Projection::Field(f) => f,
        Projection::Wildcard => unreachable!("plan expands wildcards"),
    }
}

// ---------------------------------------------------------------------------
// Raw scan path
// ---------------------------------------------------------------------------

fn scan_rows(
    plan: &QueryPlan,
    view: MeasurementView<'_>,
    jobs: &[&[SeriesId]],
    threads: usize,
    stats: &mut ExecStats,
) -> Vec<ResultRow> {
    let runs: Vec<Vec<(RowKey, &BTreeMap<String, FieldValue>)>> =
        fan_out(threads, jobs.len(), |j| {
            let mut run = Vec::new();
            for &id in jobs[j] {
                let s = view.series(id).expect("planned id exists");
                for row in s.range(plan.start, plan.end) {
                    run.push(((row.timestamp, id.0), &row.fields));
                }
            }
            run.sort_unstable_by_key(|(k, _)| *k);
            run
        });
    stats.rows_scanned = runs.iter().map(|r| r.len() as u64).sum();
    let merged = kway_merge(runs, |(k, _)| *k);

    let mut rows = Vec::with_capacity(merged.len());
    for ((ts, _), fields) in merged {
        let values = plan
            .projections
            .iter()
            .map(|p| fields.get(projected_field(p)).and_then(|v| v.as_f64()));
        rows.push(finish_row(ts, plan, values));
    }
    rows
}

// ---------------------------------------------------------------------------
// Exact partial-aggregation path
// ---------------------------------------------------------------------------

/// Order-free partial accumulator for one projection in one bucket —
/// the one accumulator under both the exact partial-aggregation path and
/// the rollup tiers' serving path. Every state transition of `Extreme`,
/// `Count` and `Edge` is commutative/associative under the canonical-key
/// tie rules, so shards may fold rows in any order and merges in any
/// pairing. `Sum` is an ordered fold: it is only ever fed one series'
/// rows in timestamp order or one tier cell (see
/// [`crate::rollup::RollupStore::route`]), never merged.
#[derive(Debug, Clone)]
pub(crate) enum PartialAcc {
    /// `min` / `max`: value plus the canonical key where the current
    /// winner was set (smaller key wins equal values — the oracle keeps
    /// the first occurrence's bit pattern, e.g. for `-0.0` vs `0.0`).
    Extreme {
        is_min: bool,
        count: u64,
        best: f64,
        best_key: RowKey,
    },
    /// `count`: order-free by construction.
    Count { count: u64 },
    /// `first` / `last` (and raw fields, which aggregate as `last`):
    /// the value at the smallest / largest canonical key.
    Edge {
        want_first: bool,
        entry: Option<(RowKey, f64)>,
    },
    /// `sum` over one series (rollup serving only).
    Sum { count: u64, sum: f64 },
}

impl PartialAcc {
    /// The accumulator for `p`, or `None` when `p` needs the ordered fold
    /// (`mean` / `stddev` / `median`).
    pub(crate) fn for_projection(p: &Projection) -> Option<PartialAcc> {
        Some(match p {
            Projection::Aggregate(AggregateFn::Min, _) => PartialAcc::Extreme {
                is_min: true,
                count: 0,
                best: f64::INFINITY,
                best_key: KEY_SENTINEL,
            },
            Projection::Aggregate(AggregateFn::Max, _) => PartialAcc::Extreme {
                is_min: false,
                count: 0,
                best: f64::NEG_INFINITY,
                best_key: KEY_SENTINEL,
            },
            Projection::Aggregate(AggregateFn::Count, _) => PartialAcc::Count { count: 0 },
            Projection::Aggregate(AggregateFn::First, _) => PartialAcc::Edge {
                want_first: true,
                entry: None,
            },
            Projection::Aggregate(AggregateFn::Last, _) | Projection::Field(_) => {
                PartialAcc::Edge {
                    want_first: false,
                    entry: None,
                }
            }
            Projection::Aggregate(AggregateFn::Sum, _) => PartialAcc::Sum { count: 0, sum: 0.0 },
            _ => return None,
        })
    }

    /// Offer a candidate standing for `n` values: `(key, v)` is the
    /// group's winner under this accumulator's own rule (a raw row offers
    /// itself with `n == 1`). The tie rules live here and nowhere else.
    fn offer(&mut self, n: u64, key: RowKey, v: f64) {
        match self {
            PartialAcc::Extreme {
                is_min,
                count,
                best,
                best_key,
            } => {
                *count += n;
                let wins = if *is_min { v < *best } else { v > *best };
                if wins || (v == *best && key < *best_key) {
                    *best = v;
                    *best_key = key;
                }
            }
            PartialAcc::Count { count } => *count += n,
            PartialAcc::Edge { want_first, entry } => match entry {
                None => *entry = Some((key, v)),
                Some((k, val)) => {
                    let replace = if *want_first { key < *k } else { key > *k };
                    if replace {
                        *k = key;
                        *val = v;
                    }
                }
            },
            PartialAcc::Sum { .. } => unreachable!("sum folds, it never merges"),
        }
    }

    /// Fold one raw value.
    pub(crate) fn push(&mut self, key: RowKey, v: f64) {
        match self {
            PartialAcc::Sum { count, sum } => {
                *count += 1;
                *sum += v;
            }
            _ => self.offer(1, key, v),
        }
    }

    /// Merge a partial built from the same projection.
    fn merge(&mut self, other: &PartialAcc) {
        match *other {
            PartialAcc::Extreme {
                count,
                best,
                best_key,
                ..
            } => self.offer(count, best_key, best),
            PartialAcc::Count { count } => self.offer(count, KEY_SENTINEL, 0.0),
            PartialAcc::Edge { entry: None, .. } => {}
            PartialAcc::Edge {
                entry: Some((key, v)),
                ..
            } => self.offer(1, key, v),
            PartialAcc::Sum { .. } => unreachable!("sum folds, it never merges"),
        }
    }

    /// Merge one rollup tier cell's per-field state.
    pub(crate) fn merge_cell(&mut self, agg: &crate::rollup::FieldAgg) {
        if agg.count == 0 {
            return;
        }
        match self {
            PartialAcc::Extreme { is_min: true, .. } => self.offer(agg.count, agg.min_key, agg.min),
            PartialAcc::Extreme { is_min: false, .. } => {
                self.offer(agg.count, agg.max_key, agg.max)
            }
            PartialAcc::Count { .. } => self.offer(agg.count, KEY_SENTINEL, 0.0),
            PartialAcc::Edge {
                want_first: true, ..
            } => self.offer(1, agg.first_key, agg.first),
            PartialAcc::Edge {
                want_first: false, ..
            } => self.offer(1, agg.last_key, agg.last),
            PartialAcc::Sum { count, sum } => {
                // `route()` guarantees a single series and bucket == tier
                // interval, so exactly one cell ever reaches a Sum — the
                // stored fold is adopted, never combined.
                debug_assert_eq!(*count, 0, "sum must be served by exactly one cell");
                *count += agg.count;
                *sum = agg.sum;
            }
        }
    }

    /// Mirrors [`Accumulator::finish`] for the supported functions,
    /// including the all-NaN case (`min` stays `+inf`, `max` `-inf`),
    /// `count`'s 0-instead-of-NULL, and NULL for empty folds.
    pub(crate) fn finish(&self) -> Option<f64> {
        match self {
            PartialAcc::Extreme { count: 0, .. } | PartialAcc::Sum { count: 0, .. } => None,
            PartialAcc::Extreme { best, .. } => Some(*best),
            PartialAcc::Count { count } => Some(*count as f64),
            PartialAcc::Edge { entry, .. } => entry.map(|(_, v)| v),
            PartialAcc::Sum { sum, .. } => Some(*sum),
        }
    }
}

/// The per-bucket accumulator template when every projection is exactly
/// mergeable across shards, else `None` (ordered fold required — `sum`
/// included: per-shard partial sums would reassociate the oracle's
/// arithmetic).
fn exact_template(projections: &[Projection]) -> Option<Vec<PartialAcc>> {
    projections
        .iter()
        .map(|p| PartialAcc::for_projection(p).filter(|a| !matches!(a, PartialAcc::Sum { .. })))
        .collect()
}

/// One result row from finished per-column values.
pub(crate) fn finish_row(
    timestamp: i64,
    plan: &QueryPlan,
    values: impl Iterator<Item = Option<f64>>,
) -> ResultRow {
    // Inserted one by one: collecting would stage every row's columns in
    // a scratch vector first.
    let mut row = BTreeMap::new();
    for (col, v) in plan.columns.iter().zip(values) {
        row.insert(col.clone(), v);
    }
    ResultRow {
        timestamp,
        values: row,
    }
}

fn aggregate_exact(
    plan: &QueryPlan,
    view: MeasurementView<'_>,
    jobs: &[&[SeriesId]],
    threads: usize,
    stats: &mut ExecStats,
) -> Vec<ResultRow> {
    let template = exact_template(&plan.projections).expect("caller checked");

    let partials: Vec<(BTreeMap<i64, Vec<PartialAcc>>, u64)> = fan_out(threads, jobs.len(), |j| {
        let mut buckets: BTreeMap<i64, Vec<PartialAcc>> = BTreeMap::new();
        let mut scanned = 0u64;
        for &id in jobs[j] {
            let s = view.series(id).expect("planned id exists");
            for row in s.range(plan.start, plan.end) {
                scanned += 1;
                let key = (row.timestamp, id.0);
                // Bucket created for every scanned row, even when no
                // projected field matches — `count` reports 0 for such
                // buckets, exactly like the oracle's group map.
                let accs = buckets
                    .entry(bucket_key(plan.bucket, row.timestamp))
                    .or_insert_with(|| template.clone());
                for (acc, p) in accs.iter_mut().zip(&plan.projections) {
                    if let Some(v) = row.fields.get(projected_field(p)).and_then(|v| v.as_f64()) {
                        acc.push(key, v);
                    }
                }
            }
        }
        (buckets, scanned)
    });

    let mut merged: BTreeMap<i64, Vec<PartialAcc>> = BTreeMap::new();
    for (buckets, scanned) in partials {
        stats.rows_scanned += scanned;
        for (k, accs) in buckets {
            match merged.entry(k) {
                Entry::Vacant(e) => {
                    e.insert(accs);
                }
                Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(&accs) {
                        a.merge(b);
                    }
                }
            }
        }
    }

    merged
        .into_iter()
        .map(|(ts, accs)| finish_row(ts, plan, accs.iter().map(PartialAcc::finish)))
        .collect()
}

// ---------------------------------------------------------------------------
// Ordered-fold path
// ---------------------------------------------------------------------------

fn aggregate_ordered(
    plan: &QueryPlan,
    view: MeasurementView<'_>,
    jobs: &[&[SeriesId]],
    threads: usize,
    stats: &mut ExecStats,
) -> Vec<ResultRow> {
    // Parallel part: scan, project, and sort per shard.
    let runs: Vec<Vec<(RowKey, Vec<Option<f64>>)>> = fan_out(threads, jobs.len(), |j| {
        let mut run = Vec::new();
        for &id in jobs[j] {
            let s = view.series(id).expect("planned id exists");
            for row in s.range(plan.start, plan.end) {
                let vals: Vec<Option<f64>> = plan
                    .projections
                    .iter()
                    .map(|p| row.fields.get(projected_field(p)).and_then(|v| v.as_f64()))
                    .collect();
                run.push(((row.timestamp, id.0), vals));
            }
        }
        run.sort_unstable_by_key(|(k, _)| *k);
        run
    });
    stats.rows_scanned = runs.iter().map(|r| r.len() as u64).sum();

    // Sequential merge-fold: the same accumulators fed in the same
    // canonical order as the oracle. Bucket keys are non-decreasing along
    // the merge, so groups close as runs.
    let merged = kway_merge(runs, |(k, _)| *k);
    let fresh_accs = || -> Vec<Accumulator> {
        plan.projections
            .iter()
            .map(|p| match p {
                Projection::Aggregate(f, _) => Accumulator::new(*f),
                _ => Accumulator::new(AggregateFn::Last),
            })
            .collect()
    };

    let mut rows = Vec::new();
    let mut current: Option<(i64, Vec<Accumulator>)> = None;
    let flush = |current: &mut Option<(i64, Vec<Accumulator>)>, rows: &mut Vec<ResultRow>| {
        if let Some((ts, accs)) = current.take() {
            rows.push(finish_row(ts, plan, accs.iter().map(Accumulator::finish)));
        }
    };
    for ((ts, _), vals) in merged {
        let key = bucket_key(plan.bucket, ts);
        if current.as_ref().map(|(k, _)| *k) != Some(key) {
            flush(&mut current, &mut rows);
            current = Some((key, fresh_accs()));
        }
        let accs = &mut current.as_mut().expect("just ensured").1;
        for (acc, v) in accs.iter_mut().zip(vals) {
            if let Some(v) = v {
                acc.push(v);
            }
        }
    }
    flush(&mut current, &mut rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::query::execute;

    type BitRows = Vec<(i64, Vec<(String, Option<u64>)>)>;

    fn bits(r: &QueryResult) -> BitRows {
        r.rows
            .iter()
            .map(|row| {
                (
                    row.timestamp,
                    row.values
                        .iter()
                        .map(|(k, v)| (k.clone(), v.map(f64::to_bits)))
                        .collect(),
                )
            })
            .collect()
    }

    fn assert_matches_oracle(storage: &Storage, text: &str) {
        let q = Query::parse(text).unwrap();
        let oracle = execute(storage, &q).unwrap();
        for threads in [1, 2, 8] {
            let (got, stats) = run(storage, &q, ExecMode::Parallel(threads)).unwrap();
            assert_eq!(got.columns, oracle.columns, "{text} ({threads} threads)");
            assert_eq!(bits(&got), bits(&oracle), "{text} ({threads} threads)");
            assert!(stats.parallel);
            assert_eq!(stats.threads, threads);
        }
    }

    fn corpus() -> Storage {
        let mut s = Storage::new();
        for host in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            for t in 0..40 {
                s.insert(
                    Point::new("m")
                        .tag("host", host)
                        .field("v", (t as f64).sin() * 1e3 + host.len() as f64)
                        .field("w", t as f64)
                        .timestamp(t * 3),
                );
            }
        }
        // A NaN, signed zeros, and a sparse series.
        s.insert(
            Point::new("m")
                .tag("host", "a")
                .field("v", f64::NAN)
                .timestamp(7),
        );
        s.insert(
            Point::new("m")
                .tag("host", "b")
                .field("v", -0.0)
                .timestamp(7),
        );
        s.insert(
            Point::new("m")
                .tag("host", "c")
                .field("v", 0.0)
                .timestamp(7),
        );
        s.insert(
            Point::new("m")
                .tag("host", "z")
                .field("u", 5.0)
                .timestamp(200),
        );
        s
    }

    #[test]
    fn raw_scan_matches_oracle() {
        let s = corpus();
        assert_matches_oracle(&s, "SELECT * FROM \"m\"");
        assert_matches_oracle(&s, "SELECT \"v\" FROM \"m\" WHERE host='a'");
        assert_matches_oracle(
            &s,
            "SELECT \"v\", \"w\" FROM \"m\" WHERE time >= 10 AND time < 50",
        );
    }

    #[test]
    fn exact_aggregates_match_oracle() {
        let s = corpus();
        assert_matches_oracle(
            &s,
            "SELECT min(\"v\"), max(\"v\") FROM \"m\" GROUP BY time(17)",
        );
        assert_matches_oracle(&s, "SELECT count(\"v\") FROM \"m\"");
        assert_matches_oracle(
            &s,
            "SELECT first(\"v\"), last(\"w\"), \"v\" FROM \"m\" GROUP BY time(13)",
        );
        // Signed-zero tie at ts 7: the canonical-first bit pattern wins.
        assert_matches_oracle(
            &s,
            "SELECT min(\"v\"), max(\"v\") FROM \"m\" WHERE time = 7",
        );
        // Bucket with rows but no matching field: count is 0, min NULL.
        assert_matches_oracle(
            &s,
            "SELECT count(\"u\"), min(\"u\") FROM \"m\" GROUP BY time(50)",
        );
    }

    #[test]
    fn ordered_aggregates_match_oracle() {
        let s = corpus();
        assert_matches_oracle(&s, "SELECT sum(\"v\") FROM \"m\" GROUP BY time(17)");
        assert_matches_oracle(
            &s,
            "SELECT mean(\"v\"), stddev(\"w\") FROM \"m\" GROUP BY time(11)",
        );
        assert_matches_oracle(
            &s,
            "SELECT sum(\"v\"), count(\"v\") FROM \"m\" WHERE host='b'",
        );
        // NaN at ts 7 poisons its bucket's sum identically in both paths.
        assert_matches_oracle(
            &s,
            "SELECT sum(\"v\") FROM \"m\" WHERE time >= 0 AND time < 20",
        );
    }

    #[test]
    fn pruning_reported_and_harmless() {
        let s = corpus();
        let q = Query::parse("SELECT \"u\" FROM \"m\" WHERE time >= 150 AND time < 300").unwrap();
        let (got, stats) = run(&s, &q, ExecMode::Parallel(2)).unwrap();
        let oracle = execute(&s, &q).unwrap();
        assert_eq!(bits(&got), bits(&oracle));
        assert!(stats.series_pruned > 0, "hosts a..h end at ts 117");
        assert_eq!(stats.rows_scanned, 1);
    }

    #[test]
    fn sequential_mode_delegates_to_oracle() {
        let s = corpus();
        let q = Query::parse("SELECT sum(\"v\") FROM \"m\"").unwrap();
        let (got, stats) = run(&s, &q, ExecMode::Sequential).unwrap();
        assert_eq!(bits(&got), bits(&execute(&s, &q).unwrap()));
        assert!(!stats.parallel);
    }

    #[test]
    fn fan_out_is_order_deterministic() {
        for threads in [1, 2, 8] {
            let out = fan_out(threads, 20, |i| i * i);
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn kway_merge_interleaves() {
        let runs = vec![vec![1, 4, 7], vec![2, 5], vec![0, 3, 6, 8]];
        assert_eq!(kway_merge(runs, |&x| x), vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn unknown_measurement_errors_match() {
        let s = corpus();
        let q = Query::parse("SELECT \"v\" FROM \"nosuch\"").unwrap();
        assert!(matches!(
            run(&s, &q, ExecMode::Parallel(4)),
            Err(TsdbError::UnknownMeasurement(_))
        ));
    }
}
