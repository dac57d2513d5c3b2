//! Regression pins for series identity: duplicate-timestamp LWW merges
//! stay within their series, rows sharing a timestamp across series are
//! never conflated, and retention prunes every series.

use pmove_tsdb::query::Projection;
use pmove_tsdb::storage::Storage;
use pmove_tsdb::{exec, Database, ExecMode, Point, Query};

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

/// Retention must prune rows in *every* series, drop emptied series from
/// index and id map, and leave both executors agreeing afterwards.
#[test]
fn retention_prunes_every_series() {
    let mut s = Storage::new();
    // 40 hosts, each with old and new rows.
    for i in 0..40 {
        let host = format!("h{i}");
        s.insert(pt(&host, 10, i as f64));
        s.insert(pt(&host, 200, i as f64 + 0.5));
    }
    // 8 hosts with *only* old rows: their series must disappear entirely.
    for i in 40..48 {
        s.insert(pt(&format!("h{i}"), 20, 1.0));
    }
    assert_eq!(s.total_rows(), 88);
    let h45 = [("host".to_string(), "h45".to_string())];
    let old_id = s.measurement("m").unwrap().matching_series(&h45)[0];

    let removed = s.drop_before(100);
    assert_eq!(removed, 48);
    assert_eq!(s.total_rows(), 40);
    let m = s.measurement("m").unwrap();
    assert_eq!(m.series_count(), 40);
    for series in m.series_iter() {
        assert!(series.timestamps().iter().all(|&ts| ts >= 100));
    }
    // The emptied series left the tag index, and the id map: the same key
    // written again is a new series with a fresh id.
    assert_eq!(m.tag_values("host").len(), 40);
    assert!(m.matching_series(&h45).is_empty());

    let q = raw_query();
    let (seq, _) = exec::run(&s, &q, ExecMode::Sequential).unwrap();
    assert_eq!(seq.rows.len(), 40);
    for threads in [2, 8] {
        let (par, _) = exec::run(&s, &q, ExecMode::Parallel(threads)).unwrap();
        assert_eq!(par, seq, "threads={threads}");
    }

    s.insert(pt("h45", 300, 1.0));
    let m = s.measurement("m").unwrap();
    assert!(m.matching_series(&h45)[0] > old_id);
    assert_eq!(m.series_count(), 41);
}
