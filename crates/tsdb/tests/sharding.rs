//! Regression pins for sharded storage: duplicate-timestamp LWW merges
//! stay within their series' shard, rows sharing a timestamp across
//! shards are never conflated, retention prunes every shard, and the
//! shard count itself is observationally invisible.

use pmove_tsdb::query::Projection;
use pmove_tsdb::series::SeriesKey;
use pmove_tsdb::storage::{shard_of_key, Storage};
use pmove_tsdb::{exec, Database, ExecMode, Point, Query, DEFAULT_SHARD_COUNT};

/// Two hosts of the same measurement whose series keys hash to
/// *different* shards (found deterministically, asserted, not assumed).
fn cross_shard_hosts() -> (String, String) {
    let shard = |host: &str| {
        shard_of_key(
            &SeriesKey::new("m", [("host", host)]).canonical(),
            DEFAULT_SHARD_COUNT,
        )
    };
    let a = "h0".to_string();
    for i in 1..200 {
        let b = format!("h{i}");
        if shard(&b) != shard(&a) {
            return (a, b);
        }
    }
    panic!("no cross-shard host pair in 200 candidates");
}

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

/// Same timestamp written to series in different shards of one
/// measurement: LWW must merge *within* each series only, and the merged
/// scan must keep one row per (timestamp, series) in canonical order —
/// identically at every thread count.
#[test]
fn duplicate_timestamps_across_shards_stay_distinct_and_lww_merges_within() {
    let (a, b) = cross_shard_hosts();
    let db = Database::new("t");
    db.set_query_cache_capacity(0);
    db.write_point(pt(&a, 10, 1.0)).unwrap();
    db.write_point(pt(&b, 10, 2.0)).unwrap();
    // Overwrite series a at the same timestamp: last write wins in a's
    // shard; b's shard must be untouched.
    db.write_point(pt(&a, 10, 7.5)).unwrap();

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

/// Retention must prune rows in *every* shard, drop emptied series from
/// placement and index, and leave both executors agreeing afterwards.
#[test]
fn retention_prunes_every_shard() {
    let mut s = Storage::new();
    // 40 hosts spread over the 16 shards, each with old and new rows.
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

    let removed = s.drop_before(100);
    assert_eq!(removed, 48);
    assert_eq!(s.total_rows(), 40);
    let m = s.measurement("m").unwrap();
    assert_eq!(m.series_count(), 40);
    for series in m.series_iter() {
        assert!(series.timestamps().iter().all(|&ts| ts >= 100));
    }

    let q = raw_query();
    let (seq, _) = exec::run(&s, &q, ExecMode::Sequential).unwrap();
    assert_eq!(seq.rows.len(), 40);
    for threads in [2, 8] {
        let (par, _) = exec::run(&s, &q, ExecMode::Parallel(threads)).unwrap();
        assert_eq!(par, seq, "threads={threads}");
    }
}

/// The shard count is an implementation detail: 1-shard and 16-shard
/// stores loaded with the same writes answer every query identically.
#[test]
fn shard_count_is_observationally_invisible() {
    let mut one = Storage::with_shards(1);
    let mut many = Storage::with_shards(DEFAULT_SHARD_COUNT);
    for i in 0..24 {
        let host = format!("h{}", i % 7);
        let p = pt(&host, (i * 13) % 50, i as f64 * 1.25);
        one.insert(p.clone());
        many.insert(p);
    }
    let queries = [
        raw_query(),
        Query {
            projections: vec![Projection::Aggregate(
                pmove_tsdb::aggregate::AggregateFn::Sum,
                "value".into(),
            )],
            measurement: "m".into(),
            tag_filters: Vec::new(),
            time_start: Some(5),
            time_end: Some(45),
            group_by_time: Some(10),
        },
    ];
    for q in &queries {
        let (want, _) = exec::run(&one, q, ExecMode::Sequential).unwrap();
        for s in [&one, &many] {
            for mode in [ExecMode::Sequential, ExecMode::Parallel(8)] {
                let (got, _) = exec::run(s, q, mode).unwrap();
                assert_eq!(got, want, "{mode:?} on {} shards", s.shard_count());
            }
        }
    }
}
