//! Model check: the columnar `Storage` vs the row-of-maps layout it
//! replaced.
//!
//! The old in-memory shape — per series a `Vec<Row>` sorted by timestamp,
//! each row a `BTreeMap<String, FieldValue>`, duplicate timestamps merged
//! last-write-wins — is kept here as a small test-only model, together
//! with the old gather-sort-fold executor over it. Random schedules of
//! in-order, late and duplicate-timestamp writes, sparse and
//! late-appearing fields, `Int`/`Bool`/`Str` values and type changes on
//! the same cell, NaN payloads, ±0.0, empty-field rows and `drop_before`
//! are applied to both; at every retention cut and at the end the two
//! must agree **bit for bit** on
//!
//! * the `for_each_cell` stream (the replication layer's Merkle walk);
//! * `total_rows`, the measurement names and each one's `field_keys`;
//! * every query, in `Sequential` and `Parallel(1|2|8)` mode.
//!
//! `PMOVE_DIFF_CASES` overrides the case count (default 128).

use pmove_tsdb::aggregate::{Accumulator, AggregateFn};
use pmove_tsdb::exec;
use pmove_tsdb::query::Projection;
use pmove_tsdb::storage::Storage;
use pmove_tsdb::{ExecMode, FieldValue, Point, Query, QueryResult, ResultRow, SeriesKey};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const MEASUREMENTS: [&str; 2] = ["m", "n"];
const FIELDS: [&str; 4] = ["value", "aux", "gap", "late"];

fn cases() -> u32 {
    let set = std::env::var("PMOVE_DIFF_CASES").ok();
    set.and_then(|v| v.parse().ok()).unwrap_or(128)
}

// ---------------------------------------------------------------------------
// The model: the layout and executor this crate had before the columns
// ---------------------------------------------------------------------------

struct Row {
    timestamp: i64,
    fields: BTreeMap<String, FieldValue>,
}

struct ModelSeries {
    key: SeriesKey,
    rows: Vec<Row>,
}

#[derive(Default)]
struct Model {
    /// In order of first appearance, which is ascending id: ids are never
    /// reused, so a key that comes back after retention emptied its series
    /// goes to the end.
    series: Vec<ModelSeries>,
    /// Per measurement ever written, the field keys ever written.
    field_keys: BTreeMap<String, BTreeSet<String>>,
}

impl Model {
    fn insert(&mut self, p: Point) {
        let keys = self.field_keys.entry(p.measurement.clone()).or_default();
        keys.extend(p.fields.keys().cloned());
        let key = SeriesKey {
            measurement: p.measurement,
            tags: p.tags,
        };
        let at = self.series.iter().position(|s| s.key == key);
        let at = at.unwrap_or_else(|| {
            self.series.push(ModelSeries {
                key,
                rows: Vec::new(),
            });
            self.series.len() - 1
        });
        let rows = &mut self.series[at].rows;
        let pos = rows.partition_point(|r| r.timestamp < p.timestamp);
        match rows.get_mut(pos) {
            Some(row) if row.timestamp == p.timestamp => row.fields.extend(p.fields),
            _ => rows.insert(
                pos,
                Row {
                    timestamp: p.timestamp,
                    fields: p.fields,
                },
            ),
        }
    }

    fn drop_before(&mut self, cutoff: i64) -> usize {
        let before = self.total_rows();
        for s in &mut self.series {
            s.rows.retain(|r| r.timestamp >= cutoff);
        }
        self.series.retain(|s| !s.rows.is_empty());
        before - self.total_rows()
    }

    fn total_rows(&self) -> usize {
        self.series.iter().map(|s| s.rows.len()).sum()
    }

    /// Measurements by name, series by id, rows by time, fields by name.
    fn cells(&self) -> Vec<String> {
        let mut out = Vec::new();
        for name in self.field_keys.keys() {
            for s in self.series.iter().filter(|s| &s.key.measurement == name) {
                for row in &s.rows {
                    for (field, value) in &row.fields {
                        out.push(cell(&s.key, row.timestamp, field, value));
                    }
                }
            }
        }
        out
    }

    /// Gather, stable-sort by timestamp, fold. `None`: unknown measurement.
    fn query(&self, q: &Query) -> Option<QueryResult> {
        let keys = self.field_keys.get(&q.measurement)?;
        let mut projections = Vec::new();
        for p in &q.projections {
            match p {
                Projection::Wildcard => {
                    projections.extend(keys.iter().cloned().map(Projection::Field))
                }
                other => projections.push(other.clone()),
            }
        }
        let named: Vec<(String, &String)> = projections
            .iter()
            .map(|p| match p {
                Projection::Field(f) => (f.clone(), f),
                Projection::Aggregate(func, f) => (format!("{}({f})", func.name()), f),
                Projection::Wildcard => unreachable!("expanded above"),
            })
            .collect();
        let (start, end) = (
            q.time_start.unwrap_or(i64::MIN),
            q.time_end.unwrap_or(i64::MAX),
        );
        let mut merged: Vec<&Row> = self
            .series
            .iter()
            .filter(|s| s.key.measurement == q.measurement)
            .filter(|s| {
                let tags = &s.key.tags;
                q.tag_filters.iter().all(|(k, v)| tags.get(k) == Some(v))
            })
            .flat_map(|s| &s.rows)
            .filter(|r| start <= r.timestamp && r.timestamp < end)
            .collect();
        merged.sort_by_key(|r| r.timestamp);

        let number = |row: &Row, field: &String| row.fields.get(field).and_then(|v| v.as_f64());
        let result_row = |timestamp, values: Vec<Option<f64>>| ResultRow {
            timestamp,
            values: named.iter().map(|(c, _)| c.clone()).zip(values).collect(),
        };
        let rows = if projections
            .iter()
            .any(|p| matches!(p, Projection::Aggregate(..)))
        {
            let mut groups: BTreeMap<i64, Vec<Accumulator>> = BTreeMap::new();
            for row in merged {
                let key = q
                    .group_by_time
                    .map_or(0, |b| row.timestamp.div_euclid(b) * b);
                let accs = groups.entry(key).or_insert_with(|| {
                    let func = |p: &Projection| match p {
                        Projection::Aggregate(f, _) => *f,
                        _ => AggregateFn::Last,
                    };
                    projections
                        .iter()
                        .map(|p| Accumulator::new(func(p)))
                        .collect()
                });
                for (acc, (_, field)) in accs.iter_mut().zip(&named) {
                    if let Some(v) = number(row, field) {
                        acc.push(v);
                    }
                }
            }
            groups
                .into_iter()
                .map(|(ts, accs)| result_row(ts, accs.iter().map(Accumulator::finish).collect()))
                .collect()
        } else {
            merged
                .into_iter()
                .map(|row| {
                    let values = named.iter().map(|(_, field)| number(row, field));
                    result_row(row.timestamp, values.collect())
                })
                .collect()
        };
        Some(QueryResult {
            columns: named.into_iter().map(|(c, _)| c).collect(),
            rows,
        })
    }
}

// ---------------------------------------------------------------------------
// Bit-exact renderings
// ---------------------------------------------------------------------------

fn cell(key: &SeriesKey, ts: i64, field: &str, value: &FieldValue) -> String {
    let v = match value {
        FieldValue::Float(x) => format!("{:016x}", x.to_bits()),
        other => format!("{other:?}"),
    };
    format!("{} {ts} {field}={v}", key.canonical())
}

fn outcome(r: Option<QueryResult>) -> String {
    use std::fmt::Write as _;
    let Some(res) = r else {
        return "unknown measurement".into();
    };
    let mut s = format!("columns={:?}\n", res.columns);
    for row in &res.rows {
        let _ = write!(s, "{}:", row.timestamp);
        for (k, v) in &row.values {
            match v {
                Some(x) => {
                    let _ = write!(s, " {k}={:016x}", x.to_bits());
                }
                None => {
                    let _ = write!(s, " {k}=null");
                }
            }
        }
        s.push('\n');
    }
    s
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

/// Decode a value code over the awkward surface of every field type.
fn value_of(code: u32) -> FieldValue {
    match code {
        0..=599 => FieldValue::Float((code as f64 - 300.0) * 1.372_251),
        600..=629 => FieldValue::Float(0.0),
        630..=659 => FieldValue::Float(-0.0),
        660..=679 => FieldValue::Float(f64::INFINITY),
        680..=699 => FieldValue::Float(f64::NEG_INFINITY),
        // Quiet NaNs with distinct payloads (and both signs).
        700..=759 => FieldValue::Float(f64::from_bits(
            0x7ff8_0000_0000_0000 | u64::from(code) | (u64::from(code & 1) << 63),
        )),
        760..=839 => FieldValue::Int(i64::from(code) - 800),
        // Beyond 2^53: not representable as f64, must survive as written.
        840..=859 => FieldValue::Int(i64::MAX - i64::from(code)),
        860..=919 => FieldValue::Bool(code.is_multiple_of(2)),
        920..=959 => FieldValue::Str(format!("{}.25", i64::from(code) - 940)),
        960..=979 => FieldValue::Str("inf".into()),
        _ => FieldValue::Str(format!("text-{code}")),
    }
}

/// ((op kind of 0..24, measurement, host, timestamp), (field mask, three
/// value codes)). Kinds 0 and 1 are a retention cut at the timestamp;
/// everything else writes a point carrying the masked fields (mask 0: a
/// row with no cells, which `Storage::insert` accepts).
type OpCode = ((u8, usize, usize, i64), (u8, u32, u32, u32));

fn point_of(&((_, m, host, ts), (mask, a, b, c)): &OpCode) -> Point {
    let mut p = Point::new(MEASUREMENTS[m])
        .tag("host", format!("h{host}"))
        .timestamp(ts);
    let codes = [a, b, c, (a + b + c) % 1100];
    for (i, field) in FIELDS.iter().enumerate() {
        if mask & (1 << i) != 0 {
            p = p.field(*field, value_of(codes[i]));
        }
    }
    p
}

const QUERIES: [&str; 16] = [
    "SELECT * FROM \"m\"",
    "SELECT * FROM \"n\" WHERE host='h1'",
    "SELECT \"late\", \"value\" FROM \"m\" WHERE time >= 10 AND time < 45",
    "SELECT \"gap\", \"never\" FROM \"n\" WHERE host='h0' AND host='h0'",
    "SELECT \"value\" FROM \"m\" WHERE host='h2' AND time >= 50 AND time < 20",
    "SELECT min(\"value\"), max(\"value\"), count(\"value\") FROM \"m\" GROUP BY time(7)",
    "SELECT first(\"aux\"), last(\"aux\"), \"gap\" FROM \"n\" GROUP BY time(13)",
    "SELECT count(\"late\"), count(\"never\"), min(\"never\") FROM \"m\" GROUP BY time(25)",
    "SELECT sum(\"aux\"), count(\"aux\") FROM \"m\" WHERE time >= 3 AND time < 50 GROUP BY time(5)",
    "SELECT mean(\"value\"), stddev(\"value\") FROM \"m\" WHERE host='h0' GROUP BY time(11)",
    "SELECT sum(\"value\"), mean(\"gap\"), max(\"late\") FROM \"n\"",
    "SELECT mean(\"value\") FROM \"m\" WHERE host='h9'",
    "SELECT \"value\" FROM \"m\" WHERE time < 0",
    "SELECT * FROM \"ghost\"",
    // The same projection twice: one map entry in a row, two columns in
    // the frame the rows are made from.
    "SELECT \"value\", *, \"value\" FROM \"m\" WHERE host='h1'",
    "SELECT sum(\"aux\"), \"aux\", sum(\"aux\"), max(\"never\") FROM \"n\" GROUP BY time(9)",
];

fn compare(stage: usize, storage: &Storage, model: &Model) {
    let mut cells = Vec::new();
    storage.for_each_cell(&mut |key, ts, field, value| cells.push(cell(key, ts, field, value)));
    assert_eq!(cells, model.cells(), "op {stage}: cell stream");
    assert_eq!(storage.total_rows(), model.total_rows(), "op {stage}");
    let names: Vec<String> = model.field_keys.keys().cloned().collect();
    assert_eq!(storage.measurement_names(), names, "op {stage}");
    for (name, keys) in &model.field_keys {
        let view = storage.measurement(name).expect("model knows it");
        let keys: Vec<String> = keys.iter().cloned().collect();
        assert_eq!(view.field_keys(), keys, "op {stage}: field keys of {name}");
    }
    for text in QUERIES {
        let q = Query::parse(text).unwrap();
        let want = outcome(model.query(&q));
        for mode in [
            ExecMode::Sequential,
            ExecMode::Parallel(1),
            ExecMode::Parallel(2),
            ExecMode::Parallel(8),
        ] {
            let got = exec::run(storage, &q, mode).ok().map(|(result, _)| result);
            assert_eq!(outcome(got), want, "op {stage}: {mode:?}: {text}");
        }
    }
}

fn check_case(ops: &[OpCode]) {
    let mut storage = Storage::new();
    let mut model = Model::default();
    for (i, op) in ops.iter().enumerate() {
        let &((kind, _, _, ts), _) = op;
        if kind < 2 {
            let removed = storage.drop_before(ts);
            assert_eq!(removed, model.drop_before(ts), "op {i}: rows dropped");
            compare(i, &storage, &model);
        } else {
            storage.insert(point_of(op));
            model.insert(point_of(op));
        }
    }
    compare(ops.len(), &storage, &model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn columnar_storage_matches_the_row_of_maps_model(
        ops in prop::collection::vec(
            ((0u8..24, 0usize..2, 0usize..4, 0i64..60), (0u8..16, 0u32..1100, 0u32..1100, 0u32..1100)),
            1..140,
        ),
    ) {
        check_case(&ops);
    }
}

/// Deterministic pin: one cell walked through every type, a field that
/// appears only after rows exist, a row with no cells, a late row that
/// shifts every column, and a cut that empties a series whose key then
/// comes back under a new id.
#[test]
fn type_changes_late_fields_and_reborn_series() {
    let w = |host, ts, mask, a, b, c| ((5, 0, host, ts), (mask, a, b, c));
    let ops: Vec<OpCode> = vec![
        w(0, 10, 0b0001, 100, 0, 0),   // value: Float
        w(0, 10, 0b0001, 800, 0, 0),   // same cell: Int
        w(0, 10, 0b0001, 870, 0, 0),   // Bool
        w(0, 10, 0b0001, 1000, 0, 0),  // non-numeric Str: NULL to queries
        w(0, 10, 0b0001, 930, 0, 0),   // numeric Str
        w(0, 10, 0b0001, 705, 0, 0),   // NaN with a payload
        w(0, 20, 0b0010, 0, 845, 0),   // aux appears late: Int beyond 2^53
        w(0, 30, 0b0000, 0, 0, 0),     // a row with no cells
        w(0, 5, 0b1000, 1, 2, 3),      // late row: `late` before everything
        w(1, 10, 0b0101, 640, 0, 610), // -0.0 and 0.0 at the shared timestamp
        w(2, 10, 0b0001, 610, 0, 0),
        ((0, 0, 0, 25), (0, 0, 0, 0)), // cut: hosts 1 and 2 vanish
        w(1, 40, 0b0011, 50, 60, 0),   // host 1 reborn: larger id than host 0
        w(0, 40, 0b0100, 0, 0, 700),
        ((1, 0, 0, 100), (0, 0, 0, 0)), // cut everything: measurement remains
    ];
    check_case(&ops);
}
