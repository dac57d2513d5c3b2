//! Columnar batch ingest: struct-of-arrays buffers that turn many points
//! into one series-interned, group-committed write.
//!
//! The row-at-a-time path pays per point: a series map lookup and — in
//! durable mode — one WAL frame and one group commit. [`ColumnarBatch`]
//! amortizes all three: points are grouped per series into two parallel
//! vectors (`ts[]` beside `fields[]`, each point's field set moved over
//! whole), each unique series is interned **once** per batch, and the engine
//! writes the whole batch as **one** WAL frame followed by **one** group
//! commit ([`crate::Database::write_batch`]). The batch is a grouping of
//! points, not the storage layout: typed per-field columns exist only in
//! [`crate::storage`], which [`ColumnarBatch::apply`] writes into.
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
//! Equivalence with row-at-a-time ingest is *bit-exact*, pinned by the
//! `PMOVE_BATCH_CASES` differential suite. The two order contracts that
//! make it hold:
//!
//! * **series-id order**: ids are allocated at first appearance, and ids
//!   define the canonical `(timestamp, series id)` row order every query
//!   result depends on. The batch interns series in first-appearance
//!   order of the incoming points — the same allocation sequence the row
//!   path produces.
//! * **LWW order**: within one series, rows stay in arrival order, so
//!   duplicate-timestamp field merges resolve identically. Across series
//!   the series-major replay order differs from arrival order, but
//!   cross-series cells never collide, so the merged state is the same.

use crate::engine::column_of_field;
use crate::line_protocol::render_series_key;
use crate::point::Point;
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
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Struct-of-arrays columns for one series within a batch: timestamps and
/// field sets in arrival order.
#[derive(Debug)]
pub struct SeriesColumns {
    /// Series identity.
    pub key: SeriesKey,
    /// Timestamps in arrival order.
    pub ts: Vec<i64>,
    /// Field sets in arrival order (moved out of the points, not copied).
    pub fields: Vec<BTreeMap<String, FieldValue>>,
}

/// A set of points transposed into per-series columns, series kept in
/// first-appearance order (the id-allocation order the row path uses).
#[derive(Debug)]
pub struct ColumnarBatch {
    series: Vec<SeriesColumns>,
    /// Arrival order as `(series slot, row index)` — what live
    /// subscription publishing replays so batching is invisible to
    /// subscribers.
    order: Vec<(u32, u32)>,
    /// Total points in the batch.
    pub points: usize,
}

impl ColumnarBatch {
    /// Transpose points into columns. Each unique series is interned once
    /// (one `SeriesKey` clone).
    pub fn build(points: Vec<Point>) -> ColumnarBatch {
        let total = points.len();
        let mut series: Vec<SeriesColumns> = Vec::new();
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(total);
        let mut index: HashMap<SeriesKey, usize, BuildHasherDefault<FnvHasher>> =
            HashMap::default();
        for point in points {
            let key = SeriesKey {
                measurement: point.measurement,
                tags: point.tags,
            };
            let slot = match index.get(&key) {
                Some(&i) => i,
                None => {
                    series.push(SeriesColumns {
                        key: key.clone(),
                        ts: Vec::new(),
                        fields: Vec::new(),
                    });
                    index.insert(key, series.len() - 1);
                    series.len() - 1
                }
            };
            order.push((slot as u32, series[slot].ts.len() as u32));
            series[slot].ts.push(point.timestamp);
            series[slot].fields.push(point.fields);
        }
        ColumnarBatch {
            series,
            order,
            points: total,
        }
    }

    /// Reconstruct the batch's points in arrival order. Clones tag and
    /// field sets, so callers only iterate when someone is listening
    /// (live subscribers).
    pub fn arrival_points(&self) -> impl Iterator<Item = Point> + '_ {
        self.order.iter().map(|&(slot, idx)| {
            let sc = &self.series[slot as usize];
            Point {
                measurement: sc.key.measurement.clone(),
                tags: sc.key.tags.clone(),
                fields: sc.fields[idx as usize].clone(),
                timestamp: sc.ts[idx as usize],
            }
        })
    }

    /// Per-series columns in first-appearance order.
    pub fn series(&self) -> &[SeriesColumns] {
        &self.series
    }

    /// Unique series in the batch.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// The batch as the durable store takes it: one block per series —
    /// escaped key rendered once, points in arrival order, which is all
    /// last-write-wins replay needs.
    pub fn blocks(&self) -> WriteBatch {
        let mut out = WriteBatch::default();
        for sc in &self.series {
            let points = sc.ts.iter().copied().zip(&sc.fields);
            push_series(&mut out, &sc.key.measurement, &sc.key.tags, points);
        }
        out
    }

    /// [`ColumnarBatch::blocks`] as one row per cell, for callers whose
    /// unit is the row.
    pub fn wal_rows(&self) -> Vec<RowRecord> {
        self.blocks().into_rows()
    }

    /// Apply the batch to storage: each unique series is opened once, in
    /// first-appearance order so id allocation matches the row-at-a-time
    /// path, and its rows are written in arrival order into the series'
    /// columns (the field sets are taken apart there, field names
    /// interned per measurement — see [`crate::storage`]).
    pub(crate) fn apply(self, storage: &mut Storage) {
        for sc in self.series {
            let mut series = storage.append(&sc.key);
            for (ts, fields) in sc.ts.into_iter().zip(sc.fields) {
                series.row_named(ts, fields);
            }
        }
    }
}

/// Append the `points` (timestamp and field set, arrival order) of
/// series `measurement` + `tags` to `out` as one block.
pub(crate) fn push_series<'a>(
    out: &mut WriteBatch,
    measurement: &str,
    tags: &BTreeMap<String, String>,
    points: impl ExactSizeIterator<Item = (i64, &'a BTreeMap<String, FieldValue>)>,
) {
    out.series(render_series_key(measurement, tags), points.len());
    for (ts, fields) in points {
        for (field, value) in fields {
            out.push(ts, field, column_of_field(value));
        }
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

impl BatchOutcome {
    /// True when every offered point was accepted.
    pub fn all_accepted(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }
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
        assert_eq!(batch.series_count(), 2);
        assert_eq!(batch.series()[0].key.tags["host"], "b");
        assert_eq!(batch.series()[1].key.tags["host"], "a");
        assert_eq!(batch.series()[0].ts, vec![1, 3]);
        assert_eq!(batch.series()[1].ts, vec![2]);
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
