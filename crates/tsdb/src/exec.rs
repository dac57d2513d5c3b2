//! Query executor: one slice-based scan kernel behind every strategy.
//!
//! Determinism contract
//! --------------------
//! `run` with any [`ExecMode`] returns results **bit-identical** to the
//! sequential reference executor ([`crate::query::execute`]), for every
//! query. The differential test harness (`tests/differential.rs`) pins
//! this. Rows are the public edge's view: the kernel answers in columns
//! and [`Frame::into_rows`] converts where a caller asks for rows.
//!
//! The scan kernel
//! ---------------
//! Every strategy reads storage the same way. Planning leaves the matching
//! series in ascending id; each becomes a [`Cursor`]: two binary searches
//! on its timestamp column give the row range inside the query window, and
//! each projection resolves — once per query, not per row — to a slice of
//! that range of the series' column. [`merge_rows`] then walks all cursors
//! in canonical `(timestamp, series id)` order by timestamp rounds: find
//! the smallest head timestamp, take every cursor holding it in ascending
//! id, advance those. Timestamps are unique within a series and ids unique
//! across them, so this is exactly the oracle's stable sort by timestamp
//! over an ascending-id gather — without gathering or sorting anything.
//!
//! Two strategies consume the merged rows, chosen per plan, and push what
//! they make of them onto the answer's column-major [`Frame`]:
//!
//! * **Raw scan** (no aggregates): one output row per merged row.
//! * **Ordered fold** (aggregates): the *same* [`Accumulator`]s fed in the
//!   *same* canonical order as the oracle — the identical arithmetic
//!   sequence, hence identical bits for `sum`/`mean`/`stddev`/`median`
//!   (floating addition is not associative), the first occurrence's bit
//!   pattern on `-0.0`/`0.0` ties of `min`/`max`, and the same NaN
//!   propagation. Bucket keys are non-decreasing along the merge, so
//!   grouping is run-detection instead of a map lookup per row, and one
//!   bucket's accumulators are live at a time.
//!
//! A third — routed aggregates answered from materialized tier cells —
//! lives in [`crate::rollup`].
//!
//! No fan-out
//! ----------
//! Every query runs on the calling thread, whatever number
//! [`ExecMode::Parallel`] carries: no benchmark workload issues a query a
//! fan-out could pay for (DESIGN.md "Why nothing fans out").

use crate::aggregate::{Accumulator, AggregateFn};
use crate::error::TsdbError;
use crate::query::{self, Frame, Projection, Query, QueryPlan, QueryResult};
use crate::rollup::RollupStore;
use crate::storage::{ColumnSlice, Measurement, Storage};
use std::sync::Arc;

/// How a query is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The original single-threaded executor, kept as the reference
    /// implementation (the oracle of the differential harness).
    Sequential,
    /// The scan kernel, with rollup routing. The number is ignored: no
    /// strategy spawns (see the module docs).
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

/// Work accounting for one executed query (exported as `tsdb.query.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows scanned (after time-range narrowing).
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

/// Execute a query in the given mode, answering in rows: the kernel's
/// frame converted at this edge, the oracle's rows as they are.
pub fn run(
    storage: &Storage,
    q: &Query,
    mode: ExecMode,
) -> Result<(QueryResult, ExecStats), TsdbError> {
    match mode {
        ExecMode::Sequential => Ok((query::execute(storage, q)?, ExecStats::default())),
        ExecMode::Parallel(_) => {
            let (frame, stats) = run_kernel(storage, q, None)?;
            Ok((Arc::new(frame).into_rows(), stats))
        }
    }
}

/// [`run`] answering in columns, with optional rollup tiers: eligible
/// aggregate queries on the kernel path are routed to the coarsest
/// covering tier (see [`crate::rollup`] for the exactness envelope).
/// Sequential mode never uses tiers — it stays the pure oracle the
/// differential harness trusts.
pub(crate) fn run_frame(
    storage: &Storage,
    q: &Query,
    mode: ExecMode,
    rollups: Option<&RollupStore>,
) -> Result<(Frame, ExecStats), TsdbError> {
    match mode {
        ExecMode::Sequential => {
            let rows = query::execute(storage, q)?;
            Ok((Frame::from_rows(rows), ExecStats::default()))
        }
        ExecMode::Parallel(_) => run_kernel(storage, q, rollups),
    }
}

fn run_kernel(
    storage: &Storage,
    q: &Query,
    rollups: Option<&RollupStore>,
) -> Result<(Frame, ExecStats), TsdbError> {
    let (mut plan, view) = query::plan(storage, q)?;
    let mut stats = ExecStats {
        series_pruned: plan.series_pruned as u64,
        ..ExecStats::default()
    };
    let mut frame = Frame::new(std::mem::take(&mut plan.columns));

    // Routed aggregate queries are answered from materialized tier cells,
    // with per-bucket raw fallback for window edges and dirty buckets.
    if let Some(rs) = rollups {
        if let Some(tier) = rs.route(&q.measurement, &plan) {
            stats.rollup_routed = true;
            rs.serve(&q.measurement, tier, &plan, view, &mut stats, &mut frame);
            return Ok((frame, stats));
        }
    }

    let cursors = cursors(&plan, view);
    stats.rows_scanned = cursors.iter().map(|c| c.ts.len() as u64).sum();
    if plan.aggregated {
        aggregate_ordered(&plan, &cursors, &mut frame);
    } else {
        scan_rows(&cursors, &mut frame);
    }
    Ok((frame, stats))
}

// ---------------------------------------------------------------------------
// The scan kernel
// ---------------------------------------------------------------------------

/// One series' share of a scan: its rows inside the plan's window as a
/// slice of the timestamp column and, row-aligned, one slice per
/// projection of the projected field's column.
struct Cursor<'a> {
    ts: &'a [i64],
    cols: Vec<ColumnSlice<'a>>,
}

/// The plan's cursors, in ascending series id.
fn cursors<'a>(plan: &QueryPlan, view: &'a Measurement) -> Vec<Cursor<'a>> {
    plan.ids
        .iter()
        .map(|&id| {
            let s = view.series(id).expect("planned id exists");
            let rows = s.range(plan.start, plan.end);
            let slice = |field| Some(s.column(field?)?.slice(rows.clone()));
            Cursor {
                ts: &s.timestamps()[rows.clone()],
                cols: plan
                    .fields
                    .iter()
                    .map(|&field| slice(field).unwrap_or_default())
                    .collect(),
            }
        })
        .collect()
}

/// Visit every row of `cursors` (which are in ascending series id) in
/// canonical `(timestamp, series id)` order, as `visit(timestamp, cursor,
/// row within the cursor)`.
///
/// Each round takes the smallest head timestamp and every cursor holding
/// it, in cursor order, finding the next round's timestamp on the same
/// pass. When series share timestamps — samplers ticking together, every
/// corpus the benchmark generates — that is one comparison per row.
fn merge_rows<'a>(cursors: &[Cursor<'a>], mut visit: impl FnMut(i64, &Cursor<'a>, usize)) {
    // `i64::MAX` marks an exhausted cursor: `range` is end-exclusive, so
    // no scanned row carries it.
    let head = |c: &Cursor<'_>, row: usize| c.ts.get(row).copied().unwrap_or(i64::MAX);
    let mut at = vec![0usize; cursors.len()];
    let mut heads: Vec<i64> = cursors.iter().map(|c| head(c, 0)).collect();
    let mut ts = heads.iter().copied().min().unwrap_or(i64::MAX);
    while ts != i64::MAX {
        let mut next = i64::MAX;
        for (k, cursor) in cursors.iter().enumerate() {
            if heads[k] == ts {
                visit(ts, cursor, at[k]);
                at[k] += 1;
                heads[k] = head(cursor, at[k]);
            }
            next = next.min(heads[k]);
        }
        ts = next;
    }
}

// ---------------------------------------------------------------------------
// Raw scan path
// ---------------------------------------------------------------------------

fn scan_rows(cursors: &[Cursor<'_>], out: &mut Frame) {
    out.reserve(cursors.iter().map(|c| c.ts.len()).sum());
    merge_rows(cursors, |ts, cursor, row| {
        out.push_row(ts, cursor.cols.iter().map(|col| col.get(row)));
    });
}

// ---------------------------------------------------------------------------
// Ordered-fold path
// ---------------------------------------------------------------------------

/// Fold the rows of `cursors`, in canonical order, into one set of
/// accumulators per time bucket; buckets come out ascending. Bucket keys
/// are non-decreasing along the merge, so groups close as runs: one
/// bucket is open at a time, and becomes a row of `out` when the next
/// opens.
fn aggregate_ordered(plan: &QueryPlan, cursors: &[Cursor<'_>], out: &mut Frame) {
    let fresh = || {
        plan.projections.iter().map(|p| match p {
            Projection::Aggregate(f, _) => Accumulator::new(*f),
            _ => Accumulator::new(AggregateFn::Last),
        })
    };
    let mut accs: Vec<Accumulator> = Vec::new();
    // Key of the open bucket and its exclusive end: one division per
    // bucket, not per row.
    let mut open = None;
    let mut end = i64::MIN;
    merge_rows(cursors, |ts, cursor, row| {
        // A bucket opens for every scanned row, even when no projected
        // field has a value there — `count` reports 0 for such buckets,
        // exactly like the oracle's group map.
        if ts >= end {
            if let Some(key) = open {
                out.push_row(key, accs.iter().map(Accumulator::finish));
            }
            let (key, width) = match plan.bucket {
                Some(b) => (ts.div_euclid(b) * b, b),
                None => (0, i64::MAX),
            };
            end = key.saturating_add(width);
            open = Some(key);
            accs.clear();
            accs.extend(fresh());
        }
        for (acc, col) in accs.iter_mut().zip(&cursor.cols) {
            if let Some(v) = col.get(row) {
                acc.push(v);
            }
        }
    });
    if let Some(key) = open {
        out.push_row(key, accs.iter().map(Accumulator::finish));
    }
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
            let (got, _) = run(storage, &q, ExecMode::Parallel(threads)).unwrap();
            assert_eq!(got.columns, oracle.columns, "{text} ({threads} threads)");
            assert_eq!(bits(&got), bits(&oracle), "{text} ({threads} threads)");
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
        assert_eq!(stats, ExecStats::default());
    }

    #[test]
    fn projection_of_a_field_no_series_in_range_has() {
        let s = corpus();
        // `u` exists in the measurement, but only host z (ts 200) has it.
        for text in [
            "SELECT \"u\" FROM \"m\" WHERE time < 100",
            "SELECT \"u\", \"v\" FROM \"m\" WHERE host='a'",
            "SELECT count(\"u\"), max(\"u\"), last(\"v\") FROM \"m\" WHERE time < 100 GROUP BY time(25)",
            "SELECT sum(\"u\"), mean(\"u\") FROM \"m\" WHERE host='b'",
            // A field the measurement never saw at all.
            "SELECT \"nosuch\", \"v\" FROM \"m\" WHERE host='c' AND time < 20",
            "SELECT count(\"nosuch\"), sum(\"nosuch\") FROM \"m\" GROUP BY time(50)",
        ] {
            assert_matches_oracle(&s, text);
        }
        let q = Query::parse("SELECT \"u\" FROM \"m\" WHERE host='a'").unwrap();
        let (got, stats) = run(&s, &q, ExecMode::Parallel(2)).unwrap();
        assert_eq!(stats.rows_scanned, 41, "every row is scanned and returned");
        assert_eq!(got.rows.len(), 41);
        assert!(got.rows.iter().all(|r| r.values["u"].is_none()));
    }

    #[test]
    fn merge_rows_is_canonical() {
        // Heads aligned, staggered and exhausted at different times; some
        // cursors empty.
        let ts: Vec<Vec<i64>> = (0..37)
            .map(|k| match k % 4 {
                0 => (0..20).map(|i| i * 10).collect(),
                1 => (0..9).map(|i| i * 10 + k).collect(),
                2 => Vec::new(),
                _ => vec![k, 500 - k],
            })
            .collect();
        let cursors: Vec<Cursor<'_>> = ts
            .iter()
            .map(|ts| Cursor {
                ts,
                cols: Vec::new(),
            })
            .collect();
        let mut got = Vec::new();
        merge_rows(&cursors, |t, c, row| {
            assert_eq!(c.ts[row], t);
            let k = cursors.iter().position(|x| std::ptr::eq(x, c)).unwrap();
            got.push((t, k));
        });
        let mut want: Vec<(i64, usize)> = cursors
            .iter()
            .enumerate()
            .flat_map(|(k, c)| c.ts.iter().map(move |&t| (t, k)))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
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
