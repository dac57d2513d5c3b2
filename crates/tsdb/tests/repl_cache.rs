//! Query-cache freshness under replication.
//!
//! The LRU query cache (PR 4) validates entries against a
//! per-measurement write version. Locally ingested points bump it in
//! `write_point`; this suite pins the regression risk replication
//! introduced: writes that arrive *remotely* — hint replay and
//! anti-entropy repair both land as `Origin::Remote` writes —
//! must bump the same version, or a replica that cached a result while
//! it was behind would keep serving pre-repair rows forever.

use pmove_obs::Span;
use pmove_tsdb::repl::{ReplConfig, ReplicaSet};
use pmove_tsdb::{Database, FieldValue, Origin, Point};

fn point(ts: i64, v: f64) -> Point {
    Point::new("m")
        .tag("tag", "x")
        .field("f", FieldValue::Float(v))
        .timestamp(ts)
}

#[test]
fn remote_write_bumps_the_write_version() {
    let db = Database::new("r");
    let v0 = db.write_version("m");
    let (res, _) = db.write(point(1_000, 1.25), Origin::Remote, &Span::none(), 0);
    res.unwrap();
    assert!(
        db.write_version("m") > v0,
        "remote write left version stale"
    );
}

#[test]
fn cache_never_serves_pre_repair_rows_after_anti_entropy() {
    let set = ReplicaSet::in_memory("cache", ReplConfig::default()).unwrap();
    // A quorum write that missed replica 2, then a second one that
    // reached everyone: the lagging replica holds a strict subset.
    for i in 0..2 {
        set.replica(i).write_point(point(1_000, 1.25)).unwrap();
    }
    for i in 0..3 {
        set.replica(i).write_point(point(2_000, 2.5)).unwrap();
    }
    let lagging = set.replica(2);

    // Populate the lagging replica's cache with the pre-repair result.
    let q = "SELECT \"f\" FROM \"m\"";
    let before = lagging.query(q).unwrap();
    assert_eq!(before.rows.len(), 1, "lagging replica should miss one row");
    assert!(lagging.query_cache_len() > 0, "query was not cached");
    let again = lagging.query(q).unwrap();
    assert_eq!(again.rows.len(), 1);

    // Anti-entropy streams the divergent range in as remote writes.
    let v_pre = lagging.write_version("m");
    let repair = set.repair_until_converged(4).unwrap();
    assert!(repair.converged);
    assert!(repair.cells_streamed > 0, "repair had nothing to stream");
    assert!(
        lagging.write_version("m") > v_pre,
        "repair did not bump the write version"
    );

    // The cached entry is now stale by version: the same query must see
    // the repaired row, bit-exactly.
    let after = lagging.query(q).unwrap();
    assert_eq!(after.rows.len(), 2, "cache served pre-repair rows");
    let bits: Vec<Option<u64>> = after
        .rows
        .iter()
        .map(|r| r.values["f"].map(f64::to_bits))
        .collect();
    assert_eq!(
        bits,
        vec![Some(1.25f64.to_bits()), Some(2.5f64.to_bits())],
        "repaired rows are not bit-identical"
    );
}
