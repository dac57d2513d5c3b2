//! Query-cache freshness under rollup materialization.
//!
//! The LRU query cache validates entries against a per-measurement write
//! version. A rollup tick changes how aggregate queries over a
//! measurement are *served* — buckets that fell back to raw scans while
//! dirty are served from tier cells afterwards — so the tick must bump
//! the version of every measurement it materialized, exactly as
//! a remote write must for replicated rows (see `repl_cache.rs`).
//! Serving is bit-identical either way, but a stale entry would pin the
//! pre-tick routing stats and, worse, outlive a later tier rewrite.

use pmove_tsdb::{Database, ExecMode, FieldValue, Point, RollupConfig};

fn point(ts: i64, v: f64) -> Point {
    Point::new("m")
        .tag("tag", "x")
        .field("f", FieldValue::Float(v))
        .timestamp(ts)
}

#[test]
fn rollup_tick_bumps_the_write_version() {
    let db = Database::new("r");
    db.enable_rollups(RollupConfig { tiers: vec![10] });
    db.write_point(point(5, 1.25)).unwrap();
    let v0 = db.write_version("m");
    let report = db.rollup_tick().unwrap();
    assert!(report.buckets_materialized > 0, "tick had nothing to do");
    assert!(
        db.write_version("m") > v0,
        "rollup tick left the write version stale"
    );
}

#[test]
fn idle_tick_bumps_nothing() {
    let db = Database::new("r");
    db.enable_rollups(RollupConfig { tiers: vec![10] });
    db.write_point(point(5, 1.25)).unwrap();
    db.rollup_tick().unwrap();
    let v0 = db.write_version("m");
    let report = db.rollup_tick().unwrap();
    assert_eq!(report.buckets_materialized, 0);
    assert_eq!(
        db.write_version("m"),
        v0,
        "idle tick must not churn cached entries"
    );
}

#[test]
fn cached_aggregates_stay_bit_identical_across_ticks() {
    let db = Database::new("r");
    db.set_exec_mode(ExecMode::Parallel(4));
    db.enable_rollups(RollupConfig { tiers: vec![10] });
    for ts in 0..30 {
        db.write_point(point(ts, ts as f64 * 0.5)).unwrap();
    }

    // Populate the cache while the tiers are still dirty (raw fallback).
    let q = "SELECT count(\"f\"), max(\"f\") FROM \"m\" GROUP BY time(10)";
    let before = db.query(q).unwrap();
    assert!(db.query_cache_len() > 0, "query was not cached");

    // The tick re-routes the same query to tier cells; the cached raw
    // result must be invalidated, and the fresh result bit-identical.
    db.rollup_tick().unwrap();
    let after = db.query(q).unwrap();
    assert_eq!(before.columns, after.columns);
    assert_eq!(before.rows.len(), after.rows.len());
    for (b, a) in before.rows.iter().zip(&after.rows) {
        assert_eq!(b.timestamp, a.timestamp);
        for (k, v) in &b.values {
            assert_eq!(
                v.map(f64::to_bits),
                a.values[k].map(f64::to_bits),
                "tier-served {k} diverged at {}",
                b.timestamp
            );
        }
    }
}
