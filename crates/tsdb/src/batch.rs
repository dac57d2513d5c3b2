//! Columnar batch: the grouping every write goes through, one point or
//! many.
//!
//! [`ColumnarBatch`] groups points per series as the engine admits them —
//! per series the key once and the points' `(timestamp, field set)` rows
//! in arrival order, each field set moved over whole — so each series is
//! interned once, the durable store takes the lot as **one** WAL frame
//! under **one** group commit, and storage opens each series once. A
//! single point is a batch of one and pays nothing for the grouping: no
//! hash, no key copy. The batch is a grouping of points, not the storage
//! layout: typed per-field columns exist only in [`crate::storage`],
//! which `ColumnarBatch::apply` writes into.
//!
//! The durable store takes the same grouping ([`ColumnarBatch::blocks`]):
//! per series the rendered key once, the timestamps once, and one value
//! column per field — a `pmove_store::WriteBatch`, which is the WAL frame
//! and what the store's memtable absorbs; no per-cell record exists on
//! the way.
//!
//! Atomicity falls out of the WAL framing: the whole batch is one
//! `[len][crc][payload]` frame, and recovery drops a torn or corrupt
//! frame wholly. A crash mid-commit therefore replays the entire batch or
//! none of it — never a prefix (`pcp/tests/batch_crash.rs` pins this with
//! seeded MemDisk faults).
//!
//! However a stream is cut into batches the stored state is the same bit
//! for bit (the `PMOVE_BATCH_CASES` suite, against a point-at-a-time
//! model), because series take slots — and so ids, which fix the
//! canonical `(timestamp, series id)` row order of every query — in order
//! of first appearance, and rows of one series stay in arrival order, so
//! duplicate timestamps merge last-write-wins as they arrived; replaying
//! series by series reorders only cells that cannot collide.

use crate::engine::column_of_field;
use crate::line_protocol::render_series_key;
use crate::point::Point;
use crate::repl::{fnv, FNV_BASIS};
use crate::series::SeriesKey;
use crate::storage::Storage;
use crate::value::FieldValue;
use pmove_store::{RowRecord, WriteBatch};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a for the batch's series-grouping map: the keys are short strings
/// hashed millions of times per ingest run, where SipHash's setup cost
/// dominates. Grouping is an in-batch implementation detail, so the
/// weaker hash never affects query results.
#[derive(Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let h = if self.0 == 0 { FNV_BASIS } else { self.0 };
        self.0 = fnv(h, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One series within a batch: its points in arrival order.
#[derive(Debug)]
pub(crate) struct SeriesColumns {
    /// Series identity.
    pub key: SeriesKey,
    /// Timestamp and field set of each point, in arrival order (the field
    /// sets moved out of the points, not copied).
    pub rows: Vec<(i64, BTreeMap<String, FieldValue>)>,
}

/// A set of points grouped per series, series kept in first-appearance
/// order (the order series ids are allocated in).
#[derive(Debug, Default)]
pub struct ColumnarBatch {
    series: Vec<SeriesColumns>,
    /// Slot of every series but the newest, which [`ColumnarBatch::push`]
    /// finds by comparison: a series enters when the next one is opened,
    /// so a run of one series — a batch of one included — neither hashes
    /// nor clones a key.
    index: HashMap<SeriesKey, usize, BuildHasherDefault<FnvHasher>>,
    /// Total points in the batch.
    pub points: usize,
}

impl ColumnarBatch {
    /// Group `points`, kept in arrival order within each series.
    pub fn build(points: Vec<Point>) -> ColumnarBatch {
        let mut batch = ColumnarBatch::default();
        for point in points {
            batch.push(point);
        }
        batch
    }

    /// Add one point behind the ones already in: its tag and field sets
    /// are moved, and a series seen for the first time takes the next
    /// slot.
    pub(crate) fn push(&mut self, point: Point) {
        let key = SeriesKey {
            measurement: point.measurement,
            tags: point.tags,
        };
        let slot = match self.series.last() {
            Some(last) if last.key == key => self.series.len() - 1,
            last => match self.index.get(&key) {
                Some(&slot) => slot,
                None => {
                    if let Some(last) = last {
                        self.index.insert(last.key.clone(), self.series.len() - 1);
                    }
                    let rows = Vec::new();
                    self.series.push(SeriesColumns { key, rows });
                    self.series.len() - 1
                }
            },
        };
        self.series[slot].rows.push((point.timestamp, point.fields));
        self.points += 1;
    }

    /// The series in first-appearance order.
    pub(crate) fn series(&self) -> &[SeriesColumns] {
        &self.series
    }

    /// The batch as the durable store takes it: one block per series —
    /// escaped key rendered once, points in arrival order, which is all
    /// last-write-wins replay needs.
    pub(crate) fn blocks(&self) -> WriteBatch {
        let mut out = WriteBatch::default();
        for sc in &self.series {
            let key = render_series_key(&sc.key.measurement, &sc.key.tags);
            out.series(key, sc.rows.len());
            for (ts, fields) in &sc.rows {
                for (field, value) in fields {
                    out.push(*ts, field, column_of_field(value));
                }
            }
        }
        out
    }

    /// `ColumnarBatch::blocks` as one row per cell, for callers whose
    /// unit is the row.
    pub fn wal_rows(&self) -> Vec<RowRecord> {
        self.blocks().into_rows()
    }

    /// Move the batch's field sets into storage: each series is opened
    /// once, in first-appearance order (the order ids are allocated in),
    /// and its rows are written in arrival order into the series' columns
    /// (the field sets are taken apart there, field names interned per
    /// measurement — see [`crate::storage`]). Keys and timestamps stay
    /// behind for the caller's rollup marks and version bumps.
    pub(crate) fn apply(&mut self, storage: &mut Storage) {
        for sc in &mut self.series {
            let mut series = storage.append(&sc.key);
            for (ts, fields) in &mut sc.rows {
                series.row_named(*ts, std::mem::take(fields));
            }
        }
    }

    /// The measurements the batch holds points of, each once.
    pub(crate) fn measurements(mut self) -> impl Iterator<Item = String> {
        let by_name =
            |a: &SeriesColumns, b: &SeriesColumns| a.key.measurement.cmp(&b.key.measurement);
        self.series.sort_unstable_by(by_name);
        self.series
            .dedup_by(|a, b| a.key.measurement == b.key.measurement);
        self.series.into_iter().map(|sc| sc.key.measurement)
    }
}

/// Outcome of one [`crate::Database::write_batch`] call.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-point results in arrival order (`EmptyFields` and limiter
    /// rejections surface here; accepted points are `Ok`).
    pub results: Vec<Result<(), crate::error::TsdbError>>,
    /// Points admitted, committed, and stored.
    pub accepted: usize,
    /// Points rejected by the ingest limiter.
    pub rejected: usize,
    /// Unique series the accepted points covered.
    pub series: usize,
    /// Modeled WAL group-commit cost for the whole batch (0 when
    /// memory-only or nothing was accepted).
    pub commit_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(host: &str, ts: i64, v: f64) -> Point {
        Point::new("m")
            .tag("host", host)
            .field("v", v)
            .timestamp(ts)
    }

    #[test]
    fn build_interns_series_in_first_appearance_order() {
        let batch = ColumnarBatch::build(vec![pt("b", 1, 1.0), pt("a", 2, 2.0), pt("b", 3, 3.0)]);
        assert_eq!(batch.points, 3);
        assert_eq!(batch.series().len(), 2);
        assert_eq!(batch.series()[0].key.tags["host"], "b");
        assert_eq!(batch.series()[1].key.tags["host"], "a");
        let stamps = |slot: usize| -> Vec<i64> {
            let rows = batch.series()[slot].rows.iter();
            rows.map(|(ts, _)| *ts).collect()
        };
        assert_eq!((stamps(0), stamps(1)), (vec![1, 3], vec![2]));
    }

    #[test]
    fn blocks_are_series_major_and_order_preserving() {
        let batch = ColumnarBatch::build(vec![pt("b", 5, 1.0), pt("a", 1, 2.0), pt("b", 2, 3.0)]);
        assert_eq!(batch.blocks().cells(), 3);
        let rows = batch.wal_rows();
        assert_eq!(rows.len(), 3);
        // Series b's rows first (first appearance), in arrival order.
        assert_eq!(rows[0].ts, 5);
        assert_eq!(rows[1].ts, 2);
        assert_eq!(rows[2].ts, 1);
        assert!(rows[0].series.contains("host=b"));
        assert!(rows[2].series.contains("host=a"));
    }

    #[test]
    fn apply_matches_row_at_a_time_storage() {
        let points = vec![
            pt("b", 5, 1.0),
            pt("a", 1, 2.0),
            pt("b", 2, 3.0),
            pt("b", 5, 9.0), // LWW rewrite
        ];
        let mut rowwise = Storage::new();
        for p in points.clone() {
            rowwise.insert(p);
        }
        let mut batched = Storage::new();
        ColumnarBatch::build(points).apply(&mut batched);

        let mr = rowwise.measurement("m").unwrap();
        let mb = batched.measurement("m").unwrap();
        assert_eq!(mr.row_count(), mb.row_count());
        let ids_r = mr.matching_series(&[]);
        let ids_b = mb.matching_series(&[]);
        assert_eq!(ids_r, ids_b, "id allocation order must match");
        let cells = |s: &Storage| {
            let mut out = Vec::new();
            s.for_each_cell(&mut |key, ts, field, value| {
                out.push((key.clone(), ts, field.to_string(), value.clone()));
            });
            out
        };
        assert_eq!(cells(&rowwise), cells(&batched));
    }
}
