//! Differential harness: the parallel sharded executor vs the sequential
//! reference oracle.
//!
//! Random corpora (including NaN, ±0.0, ±inf values, `Int`/`Bool`/`Str`
//! fields, cells rewritten with another type, and sparse series) and
//! random queries (raw scans, every aggregate, group-by windows, tag
//! filters, empty/inverted time windows, unknown measurements) are run
//! through `ExecMode::Sequential` and through `ExecMode::Parallel` at 1, 2,
//! and 8 threads, with the query cache disabled and enabled. Results are
//! compared *bit-for-bit* (`f64::to_bits`, so NaN payloads and signed
//! zeros count), errors included. Cached configurations run every query
//! twice (the second serves from cache) and re-run after an interleaved
//! write (the cache must invalidate).
//!
//! `PMOVE_DIFF_CASES` overrides the case count (default 256).

use pmove_tsdb::aggregate::AggregateFn;
use pmove_tsdb::query::Projection;
use pmove_tsdb::{Database, ExecMode, FieldValue, Point, Query, QueryResult, TsdbError};
use proptest::prelude::*;

const FIELDS: [&str; 3] = ["value", "aux", "gap"];

fn diff_cases() -> u32 {
    std::env::var("PMOVE_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Decode a value code, covering the full awkward surface: codes below
/// 1000 are floats, the rest the other field types.
fn value_of(code: u32) -> FieldValue {
    FieldValue::Float(match code {
        0..=899 => (code as f64 - 450.0) * 1.372_251, // finite, non-integral
        900..=924 => 0.0,
        925..=949 => -0.0,
        950..=964 => f64::INFINITY,
        965..=979 => f64::NEG_INFINITY,
        980..=999 => f64::NAN,
        // Not floats: stored exactly, read by queries through `as_f64`.
        // Rewriting a cell with another code changes its type in place.
        1000..=1079 => return FieldValue::Int(i64::from(code) - 1040),
        1080..=1119 => return FieldValue::Bool(code.is_multiple_of(2)),
        1120..=1159 => return FieldValue::Str(format!("{}.5", i64::from(code) - 1140)),
        _ => return FieldValue::Str("n/a".into()),
    })
}

/// Decode a projection code; `field` indexes [`FIELDS`].
fn projection_of(kind: u8, field: u8) -> Projection {
    let f = FIELDS[field as usize % FIELDS.len()].to_string();
    match kind {
        0 => Projection::Wildcard,
        1 | 11 => Projection::Field(f),
        2 => Projection::Aggregate(AggregateFn::Min, f),
        3 => Projection::Aggregate(AggregateFn::Max, f),
        4 => Projection::Aggregate(AggregateFn::Mean, f),
        5 => Projection::Aggregate(AggregateFn::Sum, f),
        6 => Projection::Aggregate(AggregateFn::Count, f),
        7 => Projection::Aggregate(AggregateFn::Stddev, f),
        8 => Projection::Aggregate(AggregateFn::First, f),
        9 => Projection::Aggregate(AggregateFn::Last, f),
        _ => Projection::Aggregate(AggregateFn::Median, f),
    }
}

type ProjCode = (u8, u8);
type QueryCode = ((Vec<ProjCode>, u8), (u16, u16, u8));

/// Decode one generated query.
fn query_of(((projs, tagsel), (t0, t1, bucket)): &QueryCode) -> Query {
    let projections: Vec<Projection> = projs.iter().map(|&(k, f)| projection_of(k, f)).collect();
    let tag_filters = match tagsel {
        0..=5 => vec![("host".to_string(), format!("h{tagsel}"))],
        6 => Vec::new(),
        _ => vec![("host".to_string(), "h99".to_string())], // no match
    };
    Query {
        projections,
        // One code point targets a measurement that never exists, so the
        // error paths are differentially pinned too.
        measurement: if *t0 == 299 {
            "ghost".into()
        } else {
            "m".into()
        },
        tag_filters,
        time_start: (*t0 < 240).then(|| *t0 as i64 - 20),
        time_end: (*t1 < 240).then(|| *t1 as i64 - 20),
        group_by_time: (*bucket < 40).then(|| *bucket as i64 + 1),
    }
}

/// Canonical, bit-exact rendering of a query outcome.
fn outcome(r: Result<QueryResult, TsdbError>) -> String {
    use std::fmt::Write as _;
    match r {
        Err(e) => format!("error: {e:?}"),
        Ok(res) => {
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
    }
}

/// [`outcome`] of the frame the query answers with, converted to rows
/// twice: once while this function (and, cached, the result cache)
/// shares it, once after — consumed, if nothing else holds it. Each
/// column is also read positionally against the rows.
fn frame_outcome(s: &Database, q: &Query) -> String {
    let frame = match s.query_frame(q) {
        Ok(frame) => frame,
        Err(e) => return outcome(Err(e)),
    };
    let copied = frame.clone().into_rows();
    assert_eq!(copied.columns, frame.columns);
    assert_eq!(frame.cols.len(), frame.columns.len());
    for (name, col) in frame.columns.iter().zip(&frame.cols) {
        assert_eq!(col.len(), frame.len(), "column {name}");
        for ((row, ts), v) in copied.rows.iter().zip(&frame.ts).zip(col) {
            assert_eq!(row.timestamp, *ts);
            assert_eq!(row.values[name].map(f64::to_bits), v.map(f64::to_bits));
        }
    }
    let copied = outcome(Ok(copied));
    assert_eq!(outcome(Ok(frame.into_rows())), copied, "second conversion");
    copied
}

fn db(mode: ExecMode, cache: bool) -> Database {
    let d = Database::new("diff");
    d.set_exec_mode(mode);
    d.set_query_cache_capacity(if cache { 64 } else { 0 });
    d
}

fn point(host: usize, ts: i64, field: usize, value: FieldValue) -> Point {
    Point::new("m")
        .tag("host", format!("h{host}"))
        .field(FIELDS[field % FIELDS.len()], value)
        .timestamp(ts)
}

type PointCode = (usize, i64, usize, u32);

fn check_case(points: &[PointCode], queries: &[QueryCode], extra: PointCode) {
    let queries: Vec<Query> = queries.iter().map(query_of).collect();
    // `percentile` (Median) has no defined NaN ordering — the oracle
    // panics on it — so NaN-bearing corpora and Median are mutually
    // exclusive; every other special value stays in play.
    let has_median = queries.iter().any(|q| {
        q.projections
            .iter()
            .any(|p| matches!(p, Projection::Aggregate(AggregateFn::Median, _)))
    });
    let fix = |code: u32| match value_of(code) {
        FieldValue::Float(v) if has_median && v.is_nan() => FieldValue::Float(4.25e2),
        v => v,
    };

    let oracle = db(ExecMode::Sequential, false);
    let subjects: Vec<(Database, bool)> = [1usize, 2, 8]
        .iter()
        .flat_map(|&t| {
            [false, true]
                .iter()
                .map(move |&c| (db(ExecMode::Parallel(t), c), c))
        })
        .collect();

    for &(h, ts, f, code) in points {
        oracle.write_point(point(h, ts, f, fix(code))).unwrap();
        for (s, _) in &subjects {
            s.write_point(point(h, ts, f, fix(code))).unwrap();
        }
    }

    // Phase A: identical cold, and identical served from cache.
    for q in &queries {
        let want = outcome(oracle.query_parsed(q));
        for (s, cached) in &subjects {
            assert_eq!(
                outcome(s.query_parsed(q)),
                want,
                "mode {:?} cache={cached} query {}",
                s.exec_mode(),
                q.normalized()
            );
            assert_eq!(
                outcome(s.query_parsed(q)),
                want,
                "repeat (cache hit) diverged: mode {:?} cache={cached} query {}",
                s.exec_mode(),
                q.normalized()
            );
            assert_eq!(
                frame_outcome(s, q),
                want,
                "frame diverged: mode {:?} cache={cached} query {}",
                s.exec_mode(),
                q.normalized()
            );
        }
    }

    // Phase B: a write lands; cached entries must not serve stale rows.
    let (h, ts, f, code) = extra;
    oracle.write_point(point(h, ts, f, fix(code))).unwrap();
    for (s, _) in &subjects {
        s.write_point(point(h, ts, f, fix(code))).unwrap();
    }
    for q in &queries {
        let want = outcome(oracle.query_parsed(q));
        for (s, cached) in &subjects {
            assert_eq!(
                outcome(s.query_parsed(q)),
                want,
                "post-write mode {:?} cache={cached} query {}",
                s.exec_mode(),
                q.normalized()
            );
        }
    }
}

/// Names that try to break out of the key's quoting or pass for syntax.
const NAMES: [&str; 16] = [
    "a",
    "b",
    "a\", \"b",
    "a', 'b",
    "\\",
    "a\\",
    "\"",
    "'",
    "time",
    "",
    " ",
    "a b",
    "sum(\"a\")",
    "*",
    "a=b",
    "é",
];

type KeyCode = ((Vec<(u8, u8)>, u8), (Vec<(u8, u8)>, u16, u16, u8));

/// Decode a query over [`NAMES`], in canonical form: tag filters sorted
/// and deduplicated, which is all `normalized` is allowed to forget.
fn canonical_of(((projs, m), (tags, t0, t1, bucket)): &KeyCode) -> Query {
    let name = |i: u8| NAMES[i as usize % NAMES.len()].to_string();
    let mut tag_filters: Vec<(String, String)> =
        tags.iter().map(|&(k, v)| (name(k), name(v))).collect();
    tag_filters.sort();
    tag_filters.dedup();
    Query {
        projections: projs
            .iter()
            .map(|&(kind, f)| match kind {
                0 => Projection::Wildcard,
                1 | 2 => Projection::Field(name(f)),
                3 => Projection::Aggregate(AggregateFn::Sum, name(f)),
                _ => Projection::Aggregate(AggregateFn::Last, name(f)),
            })
            .collect(),
        measurement: name(*m),
        tag_filters,
        time_start: (*t0 < 300).then(|| *t0 as i64 - 150),
        time_end: (*t1 < 300).then(|| i64::MAX - *t1 as i64),
        group_by_time: (*bucket < 40).then(|| *bucket as i64 + 1),
    }
}

/// The reproduction the escaping closes: one field spelled like two
/// fields' worth of key text was served the two-field query's cached frame.
#[test]
fn quote_bearing_field_does_not_share_a_cache_entry() {
    let db = db(ExecMode::Parallel(1), true);
    let spelled = "a\", \"b";
    let p = Point::new("m").field("a", 1.0).field("b", 2.0);
    db.write_point(p.field(spelled, 3.0).timestamp(1)).unwrap();
    let select = |fields: &[&str]| Query {
        projections: fields
            .iter()
            .map(|f| Projection::Field(f.to_string()))
            .collect(),
        ..Query::parse("SELECT * FROM \"m\"").unwrap()
    };
    let two = db.query_frame(&select(&["a", "b"])).unwrap();
    assert_eq!(two.columns, ["a", "b"]);
    let one = db.query_frame(&select(&[spelled])).unwrap();
    assert_eq!(one.columns, [spelled]);
    assert_eq!(one.cols, [[Some(3.0)]]);
    assert_eq!(db.query_cache_len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    /// The cache / coalescing key is injective up to tag-filter order and
    /// multiplicity, and it is query text: parsing it gives the query back.
    #[test]
    fn normalized_key_round_trips_and_never_collides(
        a in (
            (prop::collection::vec((0u8..5, 0u8..16), 0..4), 0u8..16),
            (prop::collection::vec((0u8..16, 0u8..16), 0..3), 0u16..400, 0u16..400, 0u8..60),
        ),
        b in (
            (prop::collection::vec((0u8..5, 0u8..16), 0..4), 0u8..16),
            (prop::collection::vec((0u8..16, 0u8..16), 0..3), 0u16..400, 0u16..400, 0u8..60),
        ),
        shuffle in 0usize..4,
    ) {
        let (a, b) = (canonical_of(&a), canonical_of(&b));
        prop_assert_eq!(a.normalized() == b.normalized(), a == b);
        // The tag filters in another order, one of them twice: same key.
        let mut reordered = a.clone();
        reordered.tag_filters.reverse();
        let repeat = reordered.tag_filters.get(shuffle).cloned();
        reordered.tag_filters.extend(repeat);
        prop_assert_eq!(reordered.normalized(), a.normalized());
        if !a.projections.is_empty() {
            prop_assert_eq!(Query::parse(&a.normalized()).unwrap(), a);
        }
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_sequential(
        points in prop::collection::vec((0usize..6, 0i64..200, 0usize..3, 0u32..1200), 1..120),
        queries in prop::collection::vec(
            (
                (prop::collection::vec((0u8..12, 0u8..3), 1..4), 0u8..8),
                (0u16..300, 0u16..300, 0u8..60),
            ),
            1..5,
        ),
        extra in (0usize..6, 0i64..220, 0usize..3, 0u32..1200),
    ) {
        check_case(&points, &queries, extra);
    }
}

/// Deterministic pin: an all-NaN window, a NaN-poisoned sum, signed
/// zeros, and infinities agree bit-for-bit across every mode.
#[test]
fn nan_and_signed_zero_windows_are_bit_identical() {
    let points: Vec<PointCode> = vec![
        (0, 0, 0, 999), // NaN
        (0, 1, 0, 999), // NaN (all-NaN bucket with bucket=2)
        (1, 0, 0, 930), // -0.0
        (2, 0, 0, 910), // 0.0
        (3, 5, 0, 950), // +inf
        (3, 6, 0, 970), // -inf (inf + -inf = NaN in sums)
        (4, 9, 1, 100), // finite, different field
    ];
    let queries: Vec<QueryCode> = vec![
        (
            (vec![(2, 0), (3, 0), (5, 0), (4, 0), (7, 0)], 6),
            (280, 280, 2),
        ),
        ((vec![(6, 0), (8, 0), (9, 0)], 6), (280, 280, 1)),
        ((vec![(0, 0)], 6), (280, 280, 59)),
        ((vec![(1, 0)], 2), (280, 280, 59)),
    ];
    check_case(&points, &queries, (5, 3, 0, 400));
}

/// Deterministic pin: the shapes a positional frame could get wrong and
/// a row map hides — the same projection twice, `*` beside a named
/// field, a column NULL in every row (a field nothing wrote, a field
/// only another host wrote), and no rows at all.
#[test]
fn duplicate_wildcard_and_null_columns_are_bit_identical() {
    let points: Vec<PointCode> = vec![
        (0, 1, 0, 100),
        (0, 2, 0, 930), // -0.0
        (0, 2, 1, 300),
        (1, 2, 0, 999),  // NaN
        (1, 7, 1, 1100), // Int
    ];
    let queries: Vec<QueryCode> = vec![
        // SELECT value, value
        ((vec![(1, 0), (1, 0)], 6), (280, 280, 59)),
        // SELECT sum(value), value, sum(value) GROUP BY time(3)
        ((vec![(5, 0), (1, 0), (5, 0)], 6), (280, 280, 2)),
        // SELECT *, aux, *
        ((vec![(0, 0), (1, 1), (0, 0)], 6), (280, 280, 59)),
        // SELECT gap, value: nothing ever wrote `gap`.
        ((vec![(1, 2), (1, 0)], 6), (280, 280, 59)),
        // SELECT aux, count(aux) on h2: only other hosts wrote to `m`.
        ((vec![(1, 1), (6, 1)], 2), (280, 280, 59)),
        // SELECT *, value over a window past the data: an empty frame.
        ((vec![(0, 0), (1, 0)], 6), (200, 280, 59)),
    ];
    check_case(&points, &queries, (0, 3, 2, 500));
}

/// Deterministic pin: inverted and out-of-range windows (zero matching
/// rows) produce identical shapes in every mode, cached or not.
#[test]
fn empty_windows_are_bit_identical() {
    let points: Vec<PointCode> = vec![(0, 10, 0, 100), (1, 11, 0, 200), (2, 12, 2, 300)];
    let queries: Vec<QueryCode> = vec![
        // time >= 180 (code 200): beyond all data.
        ((vec![(1, 0), (4, 0)], 6), (200, 280, 5)),
        // Inverted: start 80 (code 100), end -20 (code 0).
        ((vec![(5, 0)], 6), (100, 0, 59)),
        // Unknown measurement error path.
        ((vec![(1, 0)], 6), (299, 280, 59)),
    ];
    check_case(&points, &queries, (0, 13, 0, 500));
}
