//! Regression pin for series identity: duplicate-timestamp LWW merges
//! stay within their series, and rows sharing a timestamp across series
//! are never conflated.

use pmove_tsdb::query::Projection;
use pmove_tsdb::{Database, ExecMode, Point, Query};

fn pt(host: &str, ts: i64, v: f64) -> Point {
    Point::new("m")
        .tag("host", host)
        .field("value", v)
        .timestamp(ts)
}

fn raw_query() -> Query {
    Query {
        projections: vec![Projection::Field("value".into())],
        measurement: "m".into(),
        tag_filters: Vec::new(),
        time_start: None,
        time_end: None,
        group_by_time: None,
    }
}

/// Same timestamp written to two series of one measurement: LWW must
/// merge *within* each series only, and the merged scan must keep one row
/// per (timestamp, series) in canonical order — identically in every mode.
#[test]
fn duplicate_timestamps_across_series_stay_distinct_and_lww_merges_within() {
    let db = Database::new("t");
    db.set_query_cache_capacity(0);
    db.write_point(pt("a", 10, 1.0)).unwrap();
    db.write_point(pt("b", 10, 2.0)).unwrap();
    // Overwrite series a at the same timestamp: last write wins in a;
    // b must be untouched.
    db.write_point(pt("a", 10, 7.5)).unwrap();

    let q = raw_query();
    let seq = db.query_with_mode(&q, ExecMode::Sequential).unwrap();
    for threads in [1, 2, 8] {
        let par = db.query_with_mode(&q, ExecMode::Parallel(threads)).unwrap();
        assert_eq!(par, seq, "threads={threads}");
    }
    // Two rows survive at ts 10 (one per series), a's carrying the
    // overwritten value, in series-id (insertion) order.
    assert_eq!(seq.rows.len(), 2);
    assert!(seq.rows.iter().all(|r| r.timestamp == 10));
    let values: Vec<f64> = seq
        .rows
        .iter()
        .map(|r| r.values["value"].unwrap())
        .collect();
    assert_eq!(values, vec![7.5, 2.0]);
}
