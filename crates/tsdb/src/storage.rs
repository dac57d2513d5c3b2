//! In-memory columnar storage: measurement -> series -> time-ordered rows,
//! physically partitioned into a fixed number of shards by series key.
//!
//! Sharding layout
//! ---------------
//! Every series is placed on exactly one shard, chosen by an FNV-1a hash of
//! its canonical key (`measurement,tag=value,...`) modulo the fixed shard
//! count. The placement is deterministic: the same series lands on the same
//! shard regardless of insertion order, process, or thread count, so the
//! parallel query executor can scan shards independently and merge partial
//! results into a canonical order. All cross-series metadata — the series-id
//! allocator, the inverted tag index, field keys, and the id -> shard
//! placement map — stays measurement-global in [`MeasurementMeta`]; only the
//! row data itself is sharded. That keeps the two invariants the engine
//! relies on:
//!
//! * **one series, one shard**: duplicate-timestamp last-write-wins merges
//!   always happen within a single [`SeriesData`], never across shards;
//! * **global series ids**: `matching_series` still returns ids in ascending
//!   order over the whole measurement, which defines the canonical
//!   `(timestamp, series id)` row order every executor must reproduce.

use crate::index::TagIndex;
use crate::point::Point;
use crate::series::{SeriesId, SeriesKey};
use crate::value::FieldValue;
use std::collections::{BTreeMap, HashMap};

/// Number of storage shards. Fixed (not configurable per database) so that
/// series placement — and therefore every per-shard artifact such as scan
/// order and partial aggregates — is identical across runs and machines.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// FNV-1a over the canonical series key, reduced modulo `shard_count`.
/// Deterministic and dependency-free; the same function the durable layer
/// could use to co-locate series on disk.
pub fn shard_of_key(canonical_key: &str, shard_count: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical_key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shard_count as u64) as usize
}

/// One stored sample: timestamp plus the point's field set.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Nanosecond timestamp.
    pub timestamp: i64,
    /// Field name -> value.
    pub fields: BTreeMap<String, FieldValue>,
}

/// Data for a single series.
#[derive(Debug)]
pub struct SeriesData {
    /// Identity of the series.
    pub key: SeriesKey,
    /// Rows sorted by timestamp (append-mostly; out-of-order inserts are
    /// placed by binary search, as Influx's TSM engine effectively does).
    pub rows: Vec<Row>,
}

impl SeriesData {
    /// Insert a row, keeping rows time-sorted. A write at an existing
    /// timestamp does not append a duplicate row: its field set is merged
    /// into the existing one, last write winning per field — InfluxDB's
    /// duplicate-point semantics (and the same last-write-wins rule the
    /// durable chunk compactor applies on disk).
    fn insert(&mut self, row: Row) {
        match self.rows.last_mut() {
            Some(last) if last.timestamp == row.timestamp => {
                last.fields.extend(row.fields);
            }
            Some(last) if last.timestamp < row.timestamp => self.rows.push(row),
            None => self.rows.push(row),
            _ => {
                let pos = self.rows.partition_point(|r| r.timestamp <= row.timestamp);
                if pos > 0 && self.rows[pos - 1].timestamp == row.timestamp {
                    self.rows[pos - 1].fields.extend(row.fields);
                } else {
                    self.rows.insert(pos, row);
                }
            }
        }
    }

    /// Rows with `start <= ts < end`. An inverted window (`end < start`)
    /// is empty, not a panic.
    pub fn range(&self, start: i64, end: i64) -> &[Row] {
        let lo = self.rows.partition_point(|r| r.timestamp < start);
        let hi = self.rows.partition_point(|r| r.timestamp < end);
        &self.rows[lo..hi.max(lo)]
    }

    /// `[min, max]` timestamps of stored rows, `None` when empty. Used by
    /// the planner to prune whole series out of a time-ranged scan.
    pub fn time_bounds(&self) -> Option<(i64, i64)> {
        match (self.rows.first(), self.rows.last()) {
            (Some(a), Some(b)) => Some((a.timestamp, b.timestamp)),
            _ => None,
        }
    }
}

/// One storage shard: per-measurement series maps holding only the series
/// placed on this shard.
#[derive(Debug, Default)]
struct Shard {
    series: HashMap<String, BTreeMap<SeriesId, SeriesData>>,
}

/// Measurement-global metadata (series ids, placement, tag index, fields).
#[derive(Debug, Default)]
struct MeasurementMeta {
    series_ids: HashMap<SeriesKey, SeriesId>,
    /// id -> shard, ascending by id (defines canonical series iteration).
    placement: BTreeMap<SeriesId, usize>,
    index: TagIndex,
    field_keys: BTreeMap<String, ()>,
}

/// Read-only view over one measurement, stitching the global metadata back
/// together with the sharded row data. API-compatible with the pre-sharding
/// `Measurement` struct so the sequential oracle executor is unchanged.
#[derive(Clone, Copy)]
pub struct MeasurementView<'a> {
    name: &'a str,
    meta: &'a MeasurementMeta,
    shards: &'a [Shard],
}

impl<'a> MeasurementView<'a> {
    /// All series in ascending id order (canonical order).
    pub fn series_iter(&self) -> impl Iterator<Item = &'a SeriesData> + '_ {
        self.meta
            .placement
            .iter()
            .filter_map(move |(id, &shard)| self.shards[shard].series.get(self.name)?.get(id))
    }

    /// Look up one series by id.
    pub fn series(&self, id: SeriesId) -> Option<&'a SeriesData> {
        let shard = *self.meta.placement.get(&id)?;
        self.shards[shard].series.get(self.name)?.get(&id)
    }

    /// Shard holding a series.
    pub fn shard_of(&self, id: SeriesId) -> Option<usize> {
        self.meta.placement.get(&id).copied()
    }

    /// Series ids matching a set of tag constraints, using the inverted
    /// index when constraints exist, otherwise all series. Always ascending.
    pub fn matching_series(&self, constraints: &[(String, String)]) -> Vec<SeriesId> {
        match self.meta.index.lookup_all(constraints) {
            Some(set) => set.into_iter().collect(),
            None => self.meta.placement.keys().copied().collect(),
        }
    }

    /// Field keys ever written to this measurement (sorted).
    pub fn field_keys(&self) -> Vec<String> {
        self.meta.field_keys.keys().cloned().collect()
    }

    /// Distinct tag values for a key.
    pub fn tag_values(&self, key: &str) -> Vec<String> {
        self.meta.index.values_for_key(key)
    }

    /// Total number of stored rows across series.
    pub fn row_count(&self) -> usize {
        self.series_iter().map(|s| s.rows.len()).sum()
    }

    /// Number of series in this measurement.
    pub fn series_count(&self) -> usize {
        self.meta.placement.len()
    }
}

/// Whole-database storage shared behind the engine lock.
#[derive(Debug)]
pub struct Storage {
    shard_count: usize,
    shards: Vec<Shard>,
    meta: BTreeMap<String, MeasurementMeta>,
    next_series: u64,
}

impl Default for Storage {
    fn default() -> Self {
        Storage::with_shards(DEFAULT_SHARD_COUNT)
    }
}

impl Storage {
    /// Create empty storage with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create empty storage with an explicit shard count (tests exercise
    /// degenerate layouts such as a single shard).
    pub fn with_shards(shard_count: usize) -> Self {
        assert!(shard_count > 0, "shard count must be positive");
        Storage {
            shard_count,
            shards: (0..shard_count).map(|_| Shard::default()).collect(),
            meta: BTreeMap::new(),
            next_series: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Resolve `key` to its id and shard, allocating both on first
    /// appearance. `canonical` is the precomputed canonical key when the
    /// caller already rendered it (the columnar batch path); `None`
    /// renders on demand. Either way the shard is the FNV-1a placement
    /// [`shard_of_key`] defines, so batched and row-at-a-time inserts
    /// agree on layout.
    fn resolve_series(&mut self, key: &SeriesKey, canonical: Option<&str>) -> (SeriesId, usize) {
        let meta = self.meta.entry(key.measurement.clone()).or_default();
        match meta.series_ids.get(key) {
            Some(id) => (*id, meta.placement[id]),
            None => {
                let id = SeriesId(self.next_series);
                self.next_series += 1;
                let shard = match canonical {
                    Some(c) => shard_of_key(c, self.shard_count),
                    None => shard_of_key(&key.canonical(), self.shard_count),
                };
                meta.series_ids.insert(key.clone(), id);
                meta.placement.insert(id, shard);
                for (k, v) in &key.tags {
                    meta.index.insert(k, v, id);
                }
                self.shards[shard]
                    .series
                    .entry(key.measurement.clone())
                    .or_default()
                    .insert(
                        id,
                        SeriesData {
                            key: key.clone(),
                            rows: Vec::new(),
                        },
                    );
                (id, shard)
            }
        }
    }

    /// Insert one point, creating measurement/series as needed.
    pub fn insert(&mut self, point: Point) {
        let key = SeriesKey {
            measurement: point.measurement,
            tags: point.tags,
        };
        let row = Row {
            timestamp: point.timestamp,
            fields: point.fields,
        };
        self.insert_series_rows(&key, None, std::iter::once(row));
    }

    /// Append rows of one series — the single insert path under both
    /// [`Storage::insert`] and the columnar batch. The series is resolved
    /// (or created) once per call: same id-allocation order and
    /// canonical-key shard placement whoever calls. Rows are inserted in
    /// the given order, so duplicate-timestamp last-write-wins merges
    /// resolve identically to inserting them one call at a time.
    pub(crate) fn insert_series_rows(
        &mut self,
        key: &SeriesKey,
        canonical: Option<&str>,
        rows: impl IntoIterator<Item = Row>,
    ) {
        let (id, shard) = self.resolve_series(key, canonical);
        let meta = self.meta.get_mut(&key.measurement).expect("just resolved");
        let series = self.shards[shard]
            .series
            .get_mut(&key.measurement)
            .expect("shard map just ensured")
            .get_mut(&id)
            .expect("series just ensured");
        for row in rows {
            for k in row.fields.keys() {
                meta.field_keys.insert(k.clone(), ());
            }
            series.insert(row);
        }
    }

    /// Access a measurement.
    pub fn measurement(&self, name: &str) -> Option<MeasurementView<'_>> {
        let (name, meta) = self.meta.get_key_value(name)?;
        Some(MeasurementView {
            name,
            meta,
            shards: &self.shards,
        })
    }

    /// All measurement names (sorted).
    pub fn measurement_names(&self) -> Vec<String> {
        self.meta.keys().cloned().collect()
    }

    /// Drop all rows strictly older than `cutoff` across every measurement
    /// and every shard; returns the number of rows removed. Empty series are
    /// pruned from their shard and removed from the measurement's index,
    /// id map, and placement map.
    pub fn drop_before(&mut self, cutoff: i64) -> usize {
        let mut removed = 0;
        let mut dead: Vec<(String, SeriesId)> = Vec::new();
        for shard in &mut self.shards {
            for (measurement, series) in shard.series.iter_mut() {
                for (id, s) in series.iter_mut() {
                    let keep_from = s.rows.partition_point(|r| r.timestamp < cutoff);
                    removed += keep_from;
                    s.rows.drain(..keep_from);
                    if s.rows.is_empty() {
                        dead.push((measurement.clone(), *id));
                    }
                }
            }
        }
        for (measurement, id) in dead {
            let Some(meta) = self.meta.get_mut(&measurement) else {
                continue;
            };
            let Some(shard) = meta.placement.remove(&id) else {
                continue;
            };
            if let Some(series) = self.shards[shard].series.get_mut(&measurement) {
                if let Some(s) = series.remove(&id) {
                    for (k, v) in &s.key.tags {
                        meta.index.remove(k, v, id);
                    }
                    meta.series_ids.remove(&s.key);
                }
            }
        }
        removed
    }

    /// Total rows stored.
    pub fn total_rows(&self) -> usize {
        self.meta
            .keys()
            .filter_map(|name| self.measurement(name))
            .map(|m| m.row_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ts: Vec<i64> = series.rows.iter().map(|r| r.timestamp).collect();
        assert_eq!(ts, vec![5, 7, 10]);
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
        let r = series.range(3, 7);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0].timestamp, 3);
        assert_eq!(r[3].timestamp, 6);
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
        assert_eq!(m.series_count(), 1);
        assert!(m.tag_values("host") == vec!["new".to_string()]);
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
        let row = &m.series_iter().next().unwrap().rows[0];
        assert_eq!(row.fields["x"], FieldValue::Float(10.0));
        assert_eq!(row.fields["y"], FieldValue::Float(2.0));
        assert_eq!(row.fields["z"], FieldValue::Float(3.0));
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
        let ts: Vec<i64> = series.rows.iter().map(|r| r.timestamp).collect();
        assert_eq!(ts, vec![5, 10]);
        assert_eq!(series.rows[0].fields["value"], FieldValue::Float(20.0));
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

    #[test]
    fn placement_is_deterministic_and_insertion_order_free() {
        // Same series set inserted in two different orders: identical
        // shard placement, because placement depends only on the canonical
        // key hash.
        let hosts = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let mut fwd = Storage::new();
        for h in hosts {
            fwd.insert(pt("m", h, 1, 1.0));
        }
        let mut rev = Storage::new();
        for h in hosts.iter().rev() {
            rev.insert(pt("m", h, 1, 1.0));
        }
        for h in hosts {
            let key = SeriesKey {
                measurement: "m".into(),
                tags: std::iter::once(("host".to_string(), h.to_string())).collect(),
            };
            let expect = shard_of_key(&key.canonical(), DEFAULT_SHARD_COUNT);
            let mf = fwd.measurement("m").unwrap();
            let mr = rev.measurement("m").unwrap();
            let idf = mf.matching_series(&[("host".into(), h.into())])[0];
            let idr = mr.matching_series(&[("host".into(), h.into())])[0];
            assert_eq!(mf.shard_of(idf), Some(expect));
            assert_eq!(mr.shard_of(idr), Some(expect));
        }
    }

    #[test]
    fn series_spread_across_shards() {
        // With enough distinct tag sets, more than one shard must be
        // populated (sanity that the hash actually distributes).
        let mut s = Storage::new();
        for i in 0..64 {
            s.insert(pt("m", &format!("host{i}"), 1, 1.0));
        }
        let m = s.measurement("m").unwrap();
        let mut used: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for id in m.matching_series(&[]) {
            used.insert(m.shard_of(id).unwrap());
        }
        assert!(used.len() > 4, "expected spread, got {used:?}");
    }

    #[test]
    fn single_shard_storage_still_works() {
        let mut s = Storage::with_shards(1);
        s.insert(pt("m", "a", 1, 1.0));
        s.insert(pt("m", "b", 2, 2.0));
        let m = s.measurement("m").unwrap();
        assert_eq!(m.row_count(), 2);
        assert_eq!(m.shard_of(m.matching_series(&[])[0]), Some(0));
    }
}
