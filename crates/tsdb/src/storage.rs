//! In-memory columnar storage: measurement -> series -> one sorted
//! timestamp column plus one typed value column per field.
//!
//! Series columns
//! --------------
//! A series is a struct of arrays, never a list of rows. `SeriesData`
//! holds `ts`, the strictly ascending timestamps of its rows, and one
//! `Column` per field the series has ever carried, every column exactly
//! as long as `ts`. Field names are interned once per measurement
//! ([`FieldId`]); a series addresses its columns by that id, so neither a
//! write nor a scan touches a field-name string per row.
//!
//! A `Column` keeps three row-aligned vectors, two of them usually empty:
//!
//! * `num` — the numeric view ([`FieldValue::as_f64`]) of every row's cell,
//!   the only thing a query reads. For `Float` cells it is the stored value
//!   itself, bit for bit.
//! * `null` — `true` where a row has no numeric value: the point carried no
//!   such field (sparse fields stay NULL, never 0), or the cell is a
//!   non-numeric string. Allocated only once a row is NULL, so the common
//!   dense float column is a bare `Vec<f64>`.
//! * `exact` — the stored [`FieldValue`] wherever it is not a `Float`
//!   (`Int`, `Bool`, `Str`), so integers beyond 2^53 and strings survive
//!   the Merkle walk and snapshots exactly. Allocated only once such a cell
//!   exists; a cell that changes type is rewritten in place.
//!
//! A write at an existing timestamp merges into the row, last write
//! winning per cell — InfluxDB's duplicate-point semantics and the rule the
//! durable chunk merge applies on disk. A write before the last timestamp
//! is placed by binary search and shifts the columns.
//!
//! Series ids
//! ----------
//! Ids are allocated at a series' first appearance, one counter for the
//! whole [`Storage`]. A [`Measurement`] keeps its series in a map ascending
//! by id, so `Measurement::matching_series` returns ids in ascending
//! order: the canonical `(timestamp, series id)` row order every executor
//! must reproduce.

use crate::index::TagIndex;
use crate::point::Point;
use crate::series::{SeriesId, SeriesKey};
use crate::value::FieldValue;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// A field name interned in its measurement: dense, assigned at the
/// field's first appearance, never reused. Valid only for the [`Storage`]
/// (and measurement) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(u32);

/// One field of one series, row-aligned with the series' timestamps. See
/// the module docs for what each vector holds and when it is allocated.
#[derive(Debug)]
pub(crate) struct Column {
    num: Vec<f64>,
    null: Vec<bool>,
    exact: Vec<Option<FieldValue>>,
}

/// What one cell contributes to each of a column's vectors.
fn split(value: FieldValue) -> (f64, bool, Option<FieldValue>) {
    match value {
        FieldValue::Float(v) => (v, false, None),
        other => match other.as_f64() {
            Some(v) => (v, false, Some(other)),
            None => (0.0, true, Some(other)),
        },
    }
}

/// Make room for `x` in a vector that stays unallocated while it would
/// only hold `T::default()`: the first other entry fills it out to `len`
/// rows. `false`: `x` is a default and the vector records none.
fn materialize<T: Clone + Default + PartialEq>(v: &mut Vec<T>, len: usize, x: &T) -> bool {
    if v.is_empty() {
        if *x == T::default() {
            return false;
        }
        v.resize(len, T::default());
    }
    true
}

impl Column {
    /// A column of `rows` NULL cells.
    fn nulls(rows: usize) -> Column {
        Column {
            num: vec![0.0; rows],
            null: vec![true; rows],
            exact: Vec::new(),
        }
    }

    /// A new row at `at`, holding `value` (`None`: no cell).
    fn insert(&mut self, at: usize, value: Option<FieldValue>) {
        let len = self.num.len();
        let (num, null, exact) = value.map_or((0.0, true, None), split);
        self.num.insert(at, num);
        if materialize(&mut self.null, len, &null) {
            self.null.insert(at, null);
        }
        if materialize(&mut self.exact, len, &exact) {
            self.exact.insert(at, exact);
        }
    }

    /// Overwrite the cell of row `at`.
    fn set(&mut self, at: usize, value: FieldValue) {
        let len = self.num.len();
        let (num, null, exact) = split(value);
        self.num[at] = num;
        if materialize(&mut self.null, len, &null) {
            self.null[at] = null;
        }
        if materialize(&mut self.exact, len, &exact) {
            self.exact[at] = exact;
        }
    }

    /// Drop the first `rows` rows.
    fn drop_front(&mut self, rows: usize) {
        self.num.drain(..rows);
        self.null.drain(..rows.min(self.null.len()));
        self.exact.drain(..rows.min(self.exact.len()));
    }

    /// Numeric value of row `i`, `None` when NULL.
    pub(crate) fn get(&self, i: usize) -> Option<f64> {
        self.slice(0..self.num.len()).get(i)
    }

    /// The stored value of row `i` exactly as written, `None` when the row
    /// has no cell in this column.
    pub(crate) fn cell(&self, i: usize) -> Option<Cow<'_, FieldValue>> {
        match self.exact.get(i) {
            Some(Some(v)) => Some(Cow::Borrowed(v)),
            _ => self.get(i).map(|v| Cow::Owned(FieldValue::Float(v))),
        }
    }

    /// The numeric view of a row range, for a scan.
    pub(crate) fn slice(&self, rows: Range<usize>) -> ColumnSlice<'_> {
        ColumnSlice {
            num: &self.num[rows.clone()],
            null: if self.null.is_empty() {
                &[]
            } else {
                &self.null[rows]
            },
        }
    }
}

/// Borrowed numeric view of some rows of one column: what a scan reads.
/// The default value is the view of a column the series does not have —
/// every row NULL.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ColumnSlice<'a> {
    num: &'a [f64],
    null: &'a [bool],
}

impl ColumnSlice<'_> {
    /// Numeric value of row `i` of the slice, `None` when NULL (or when
    /// the slice is the missing column's, which has no rows to index).
    pub(crate) fn get(&self, i: usize) -> Option<f64> {
        match self.null.get(i) {
            Some(true) => None,
            _ => self.num.get(i).copied(),
        }
    }
}

/// Data for a single series: the timestamp column and one value column
/// per field, all the same length.
#[derive(Debug)]
pub(crate) struct SeriesData {
    /// Identity of the series.
    pub(crate) key: SeriesKey,
    /// Row timestamps, strictly ascending.
    ts: Vec<i64>,
    /// Columns by [`FieldId`]; `None` for a field of the measurement this
    /// series never carried.
    cols: Vec<Option<Column>>,
}

impl SeriesData {
    /// Write one row: `cells` are stored at `ts`, merged last-write-wins
    /// into the row already there if any. Append-mostly; an out-of-order
    /// timestamp is placed by binary search, as Influx's TSM engine
    /// effectively does.
    fn upsert(&mut self, ts: i64, cells: impl IntoIterator<Item = (FieldId, FieldValue)>) {
        let rows = self.ts.len();
        let at = match self.ts.last() {
            Some(&last) if last < ts => rows,
            Some(&last) if last == ts => rows - 1,
            None => 0,
            _ => self.ts.partition_point(|&t| t < ts),
        };
        let fresh = self.ts.get(at) != Some(&ts);
        if fresh {
            self.ts.insert(at, ts);
        }
        for (FieldId(field), value) in cells {
            let field = field as usize;
            if self.cols.len() <= field {
                self.cols.resize_with(field + 1, || None);
            }
            let col = self.cols[field].get_or_insert_with(|| Column::nulls(rows));
            // A fresh row's column is one short until its cell arrives.
            if col.num.len() < self.ts.len() {
                col.insert(at, Some(value));
            } else {
                col.set(at, value);
            }
        }
        if fresh {
            for col in self.cols.iter_mut().flatten() {
                if col.num.len() < self.ts.len() {
                    col.insert(at, None);
                }
            }
        }
    }

    /// Row timestamps, strictly ascending.
    pub(crate) fn timestamps(&self) -> &[i64] {
        &self.ts
    }

    /// Row indices with `start <= ts < end`: two binary searches. An
    /// inverted window (`end < start`) is empty, not a panic.
    pub(crate) fn range(&self, start: i64, end: i64) -> Range<usize> {
        let lo = self.ts.partition_point(|&t| t < start);
        let hi = self.ts.partition_point(|&t| t < end);
        lo..hi.max(lo)
    }

    /// `[min, max]` timestamps of stored rows, `None` when empty. Used by
    /// the planner to prune whole series out of a time-ranged scan.
    pub(crate) fn time_bounds(&self) -> Option<(i64, i64)> {
        Some((*self.ts.first()?, *self.ts.last()?))
    }

    /// This series' column of `field`, `None` if it never carried one.
    pub(crate) fn column(&self, field: FieldId) -> Option<&Column> {
        self.cols.get(field.0 as usize)?.as_ref()
    }

    /// Every column this series has, ascending by field id.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (FieldId, &Column)> {
        let cols = self.cols.iter().enumerate();
        cols.filter_map(|(i, c)| Some((FieldId(i as u32), c.as_ref()?)))
    }
}

/// One measurement: its series, and what they share — the tag index and
/// the field-name table.
#[derive(Debug, Default)]
pub struct Measurement {
    series_ids: HashMap<SeriesKey, SeriesId>,
    /// Ascending by id: the canonical series iteration order.
    series: BTreeMap<SeriesId, SeriesData>,
    index: TagIndex,
    /// Field names ever written, each interned at its first appearance.
    /// Sorted by name: the order of wildcard expansion and the Merkle walk.
    fields: BTreeMap<String, FieldId>,
}

/// The id of `name` in `fields`, interning it (the only time the name is
/// kept) on first appearance.
fn intern(fields: &mut BTreeMap<String, FieldId>, name: impl AsRef<str> + Into<String>) -> FieldId {
    if let Some(&id) = fields.get(name.as_ref()) {
        return id;
    }
    let id = FieldId(u32::try_from(fields.len()).expect("under 2^32 field names"));
    fields.insert(name.into(), id);
    id
}

impl Measurement {
    /// All series in ascending id order (canonical order).
    pub(crate) fn series_iter(&self) -> impl Iterator<Item = &SeriesData> {
        self.series.values()
    }

    /// Look up one series by id.
    pub(crate) fn series(&self, id: SeriesId) -> Option<&SeriesData> {
        self.series.get(&id)
    }

    /// Series ids matching a set of tag constraints, using the inverted
    /// index when constraints exist, otherwise all series. Always ascending.
    pub(crate) fn matching_series(&self, constraints: &[(String, String)]) -> Vec<SeriesId> {
        match self.index.lookup_all(constraints) {
            Some(set) => set.into_iter().collect(),
            None => self.series.keys().copied().collect(),
        }
    }

    /// Field keys ever written to this measurement (sorted).
    pub fn field_keys(&self) -> Vec<String> {
        self.fields.keys().cloned().collect()
    }

    /// Every field with its id, sorted by name.
    pub(crate) fn fields(&self) -> impl Iterator<Item = (&str, FieldId)> {
        self.fields.iter().map(|(k, id)| (k.as_str(), *id))
    }

    /// The id a field name was interned under, `None` if the measurement
    /// never saw it.
    pub(crate) fn field_id(&self, name: &str) -> Option<FieldId> {
        self.fields.get(name).copied()
    }

    /// Total number of stored rows across series.
    pub(crate) fn row_count(&self) -> usize {
        self.series_iter().map(|s| s.ts.len()).sum()
    }
}

/// Whole-database storage shared behind the engine lock.
#[derive(Debug, Default)]
pub struct Storage {
    measurements: BTreeMap<String, Measurement>,
    next_series: u64,
}

impl Storage {
    /// Create empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one point, creating measurement/series as needed.
    pub fn insert(&mut self, point: Point) {
        let key = SeriesKey {
            measurement: point.measurement,
            tags: point.tags,
        };
        self.append(&key).row_named(point.timestamp, point.fields);
    }

    /// Open one series for writing — the single insert path under
    /// [`Storage::insert`], the columnar batch and the durable store's
    /// block load. The series is resolved, or created with the next id,
    /// once. Rows land in the order written, so duplicate-timestamp
    /// last-write-wins merges resolve identically to inserting them one
    /// call at a time.
    pub(crate) fn append(&mut self, key: &SeriesKey) -> Appender<'_> {
        // The name is copied at the measurement's first series only.
        if !self.measurements.contains_key(&key.measurement) {
            let name = key.measurement.clone();
            self.measurements.insert(name, Measurement::default());
        }
        let m = self
            .measurements
            .get_mut(&key.measurement)
            .expect("present");
        let id = match m.series_ids.get(key) {
            Some(&id) => id,
            None => {
                let id = SeriesId(self.next_series);
                self.next_series += 1;
                m.series_ids.insert(key.clone(), id);
                for (k, v) in &key.tags {
                    m.index.insert(k, v, id);
                }
                id
            }
        };
        Appender {
            fields: &mut m.fields,
            series: m.series.entry(id).or_insert_with(|| SeriesData {
                key: key.clone(),
                ts: Vec::new(),
                cols: Vec::new(),
            }),
        }
    }

    /// Access a measurement.
    pub fn measurement(&self, name: &str) -> Option<&Measurement> {
        self.measurements.get(name)
    }

    /// All measurement names (sorted).
    pub fn measurement_names(&self) -> Vec<String> {
        self.measurements.keys().cloned().collect()
    }

    /// Drop all rows strictly older than `cutoff` across every
    /// measurement; returns the number of rows removed. Emptied series are
    /// removed from their measurement's series map, index and id map.
    pub fn drop_before(&mut self, cutoff: i64) -> usize {
        let mut removed = 0;
        for m in self.measurements.values_mut() {
            m.series.retain(|id, s| {
                let keep_from = s.ts.partition_point(|&t| t < cutoff);
                removed += keep_from;
                s.ts.drain(..keep_from);
                for col in s.cols.iter_mut().flatten() {
                    col.drop_front(keep_from);
                }
                let emptied = s.ts.is_empty();
                if emptied {
                    for (k, v) in &s.key.tags {
                        m.index.remove(k, v, *id);
                    }
                    m.series_ids.remove(&s.key);
                }
                !emptied
            });
        }
        removed
    }

    /// Total rows stored.
    pub fn total_rows(&self) -> usize {
        self.measurements.values().map(|m| m.row_count()).sum()
    }

    /// Visit every stored cell in a deterministic order: measurements
    /// sorted by name, series ascending by id, rows ascending by
    /// timestamp, fields sorted by name. This is the walk the replication
    /// layer's Merkle trees are built over.
    pub fn for_each_cell(&self, f: &mut dyn FnMut(&SeriesKey, i64, &str, &FieldValue)) {
        for m in self.measurements.values() {
            for series in m.series_iter() {
                let named = m.fields();
                let cols: Vec<(&str, &Column)> = named
                    .filter_map(|(field, id)| Some((field, series.column(id)?)))
                    .collect();
                for (row, &ts) in series.ts.iter().enumerate() {
                    for (field, col) in &cols {
                        if let Some(cell) = col.cell(row) {
                            f(&series.key, ts, field, &cell);
                        }
                    }
                }
            }
        }
    }
}

/// One series opened for writing (see [`Storage::append`]).
pub(crate) struct Appender<'a> {
    /// The field-name table of the series' measurement.
    fields: &'a mut BTreeMap<String, FieldId>,
    series: &'a mut SeriesData,
}

impl Appender<'_> {
    /// The id of a field of this series' measurement, interned on first
    /// appearance.
    pub(crate) fn field(&mut self, name: &str) -> FieldId {
        intern(self.fields, name)
    }

    /// Write one row of cells addressed by field id.
    pub(crate) fn row(&mut self, ts: i64, cells: impl IntoIterator<Item = (FieldId, FieldValue)>) {
        self.series.upsert(ts, cells);
    }

    /// Write one row of cells addressed by field name.
    pub(crate) fn row_named(
        &mut self,
        ts: i64,
        cells: impl IntoIterator<Item = (String, FieldValue)>,
    ) {
        let fields = &mut *self.fields;
        let cells = cells.into_iter().map(|(name, v)| (intern(fields, name), v));
        self.series.upsert(ts, cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecMode;
    use crate::query::Query;

    fn pt(m: &str, host: &str, ts: i64, v: f64) -> Point {
        Point::new(m)
            .tag("host", host)
            .field("value", v)
            .timestamp(ts)
    }

    #[test]
    fn insert_creates_series_per_tagset() {
        let mut s = Storage::new();
        s.insert(pt("cpu", "a", 1, 1.0));
        s.insert(pt("cpu", "a", 2, 2.0));
        s.insert(pt("cpu", "b", 1, 3.0));
        let m = s.measurement("cpu").unwrap();
        assert_eq!(m.series_iter().count(), 2);
        assert_eq!(m.row_count(), 3);
    }

    #[test]
    fn out_of_order_insert_keeps_sorted() {
        let mut s = Storage::new();
        s.insert(pt("m", "a", 10, 1.0));
        s.insert(pt("m", "a", 5, 2.0));
        s.insert(pt("m", "a", 7, 3.0));
        let m = s.measurement("m").unwrap();
        let series = m.series_iter().next().unwrap();
        assert_eq!(series.timestamps(), [5, 7, 10]);
        assert_eq!(series.time_bounds(), Some((5, 10)));
    }

    #[test]
    fn range_is_half_open() {
        let mut s = Storage::new();
        for t in 0..10 {
            s.insert(pt("m", "a", t, t as f64));
        }
        let m = s.measurement("m").unwrap();
        let series = m.series_iter().next().unwrap();
        assert_eq!(series.timestamps()[series.range(3, 7)], [3, 4, 5, 6]);
    }

    #[test]
    fn inverted_range_is_empty() {
        let mut s = Storage::new();
        for t in 0..10 {
            s.insert(pt("m", "a", t, t as f64));
        }
        let m = s.measurement("m").unwrap();
        let series = m.series_iter().next().unwrap();
        assert!(series.range(7, 3).is_empty());
        assert!(series.range(20, 30).is_empty());
        assert!(series.range(5, 5).is_empty());
    }

    #[test]
    fn matching_series_uses_index() {
        let mut s = Storage::new();
        s.insert(pt("m", "a", 1, 1.0));
        s.insert(pt("m", "b", 1, 1.0));
        let m = s.measurement("m").unwrap();
        let c = vec![("host".to_string(), "a".to_string())];
        assert_eq!(m.matching_series(&c).len(), 1);
        assert_eq!(m.matching_series(&[]).len(), 2);
    }

    #[test]
    fn drop_before_prunes_and_reindexes() {
        let mut s = Storage::new();
        s.insert(pt("m", "old", 1, 1.0));
        s.insert(pt("m", "new", 100, 1.0));
        let removed = s.drop_before(50);
        assert_eq!(removed, 1);
        let m = s.measurement("m").unwrap();
        assert_eq!(m.series_iter().count(), 1);
        assert!(m.index.lookup("host", "old").is_none());
        assert!(m.index.lookup("host", "new").is_some());
    }

    /// Retention must prune rows in *every* series, drop emptied series
    /// from index and id map, and leave both executors agreeing
    /// afterwards.
    #[test]
    fn retention_prunes_every_series() {
        let mut s = Storage::new();
        // 40 hosts, each with old and new rows.
        for i in 0..40 {
            let host = format!("h{i}");
            s.insert(pt("m", &host, 10, i as f64));
            s.insert(pt("m", &host, 200, i as f64 + 0.5));
        }
        // 8 hosts with *only* old rows: their series must disappear entirely.
        for i in 40..48 {
            s.insert(pt("m", &format!("h{i}"), 20, 1.0));
        }
        assert_eq!(s.total_rows(), 88);
        let h45 = [("host".to_string(), "h45".to_string())];
        let old_id = s.measurement("m").unwrap().matching_series(&h45)[0];

        let removed = s.drop_before(100);
        assert_eq!(removed, 48);
        assert_eq!(s.total_rows(), 40);
        let m = s.measurement("m").unwrap();
        assert_eq!(m.series_iter().count(), 40);
        for series in m.series_iter() {
            assert!(series.timestamps().iter().all(|&ts| ts >= 100));
        }
        // The emptied series left the tag index, and the id map: the same
        // key written again is a new series with a fresh id.
        assert!(m.matching_series(&h45).is_empty());
        let q = Query::parse("SELECT \"value\" FROM \"m\"").unwrap();
        let (seq, _) = crate::exec::run(&s, &q, ExecMode::Sequential).unwrap();
        assert_eq!(seq.rows.len(), 40);
        for threads in [2, 8] {
            let (par, _) = crate::exec::run(&s, &q, ExecMode::Parallel(threads)).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }

        s.insert(pt("m", "h45", 300, 1.0));
        let m = s.measurement("m").unwrap();
        assert!(m.matching_series(&h45)[0] > old_id);
        assert_eq!(m.series_iter().count(), 41);
    }

    #[test]
    fn duplicate_timestamp_merges_fields_last_write_wins() {
        let mut s = Storage::new();
        s.insert(
            Point::new("m")
                .tag("host", "a")
                .field("x", 1.0)
                .field("y", 2.0)
                .timestamp(5),
        );
        // Same series, same timestamp: `x` is rewritten, `z` added, `y`
        // untouched — one row, not two.
        s.insert(
            Point::new("m")
                .tag("host", "a")
                .field("x", 10.0)
                .field("z", 3.0)
                .timestamp(5),
        );
        let m = s.measurement("m").unwrap();
        assert_eq!(m.row_count(), 1);
        let series = m.series_iter().next().unwrap();
        for (field, want) in [("x", 10.0), ("y", 2.0), ("z", 3.0)] {
            let col = series.column(m.field_id(field).unwrap()).unwrap();
            assert_eq!(col.get(0), Some(want), "{field}");
        }
        // A different series at the same timestamp still gets its own row.
        s.insert(pt("m", "b", 5, 1.0));
        assert_eq!(s.measurement("m").unwrap().row_count(), 2);
    }

    #[test]
    fn duplicate_timestamp_merges_out_of_order_too() {
        let mut s = Storage::new();
        s.insert(pt("m", "a", 10, 1.0));
        s.insert(pt("m", "a", 5, 2.0));
        // Duplicate of the non-terminal row: merged in place.
        s.insert(
            Point::new("m")
                .tag("host", "a")
                .field("value", 20.0)
                .timestamp(5),
        );
        let m = s.measurement("m").unwrap();
        let series = m.series_iter().next().unwrap();
        assert_eq!(series.timestamps(), [5, 10]);
        let col = series.column(m.field_id("value").unwrap()).unwrap();
        assert_eq!((col.get(0), col.get(1)), (Some(20.0), Some(1.0)));
    }

    #[test]
    fn sparse_and_typed_cells_read_back_exactly() {
        let mut s = Storage::new();
        let big = i64::MAX - 7; // not representable as f64
        s.insert(Point::new("m").field("n", big).timestamp(1)); // first cell ever: an Int
        s.insert(
            Point::new("m")
                .field("n", 2.5)
                .field("s", "idle")
                .timestamp(2),
        );
        s.insert(Point::new("m").field("s", "3.5").timestamp(3));
        s.insert(Point::new("m").field("n", true).timestamp(0)); // late row shifts both columns
        let m = s.measurement("m").unwrap();
        let series = m.series_iter().next().unwrap();
        let column = |name| series.column(m.field_id(name).unwrap()).unwrap();
        // What queries read: the numeric view, NULL where there is none.
        let numbers = |name| (0..4).map(|i| column(name).get(i)).collect::<Vec<_>>();
        assert_eq!(numbers("n"), [Some(1.0), Some(big as f64), Some(2.5), None]);
        assert_eq!(numbers("s"), [None, None, None, Some(3.5)]);
        // What the Merkle walk reads: every cell as written.
        let mut cells = Vec::new();
        s.for_each_cell(&mut |_, ts, field, v| cells.push((ts, field.to_string(), v.clone())));
        let cell = |ts, field: &str, v: FieldValue| (ts, field.to_string(), v);
        assert_eq!(
            cells,
            [
                cell(0, "n", FieldValue::Bool(true)),
                cell(1, "n", FieldValue::Int(big)),
                cell(2, "n", FieldValue::Float(2.5)),
                cell(2, "s", FieldValue::Str("idle".into())),
                cell(3, "s", FieldValue::Str("3.5".into())),
            ]
        );
        // A type change rewrites the cell in place.
        s.insert(Point::new("m").field("n", 9.0).timestamp(1));
        let m = s.measurement("m").unwrap();
        let n = m
            .series_iter()
            .next()
            .unwrap()
            .column(m.field_id("n").unwrap());
        assert_eq!(
            n.unwrap().cell(1).unwrap().as_ref(),
            &FieldValue::Float(9.0)
        );
    }

    #[test]
    fn field_keys_accumulate() {
        let mut s = Storage::new();
        s.insert(Point::new("m").field("a", 1.0).timestamp(1));
        s.insert(Point::new("m").field("b", 1.0).timestamp(2));
        assert_eq!(
            s.measurement("m").unwrap().field_keys(),
            vec!["a".to_string(), "b".to_string()]
        );
    }
}
