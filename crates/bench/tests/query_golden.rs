//! Golden pins for the parallel query engine.
//!
//! The Table III and live-CARM (Fig. 9) reproductions run every query
//! through the engine's *default* execution mode — the parallel sharded
//! executor — so their outputs are byte-compared here against the
//! captured `docs/results/*` files produced before the engine existed.
//! A third test drives the Table III transport workload into one database
//! with the query cache enabled, proving that cached reads never go
//! stale across interleaved ingest and that the loss-conservation audit
//! still balances.

use pmove_obs::{ConservationCell, Registry};
use pmove_tsdb::query::Projection;
use pmove_tsdb::{Database, ExecMode, Query};

const TABLE3_GOLDEN: &str = include_str!("../../../docs/results/table3.txt");
const FIG9_GOLDEN: &str = include_str!("../../../docs/results/fig9.txt");

/// Table III through the default (parallel) engine is byte-identical to
/// the captured reference output, audit line included.
#[test]
fn table3_output_matches_captured_golden() {
    assert!(matches!(
        Database::new("probe").exec_mode(),
        ExecMode::Parallel(_)
    ));
    let (rows, audit) = pmove_bench::table3::run_audited();
    let n = audit.verify().expect("audit balances");
    let text = format!(
        "{}\nconservation audit: {n}/{n} cells balanced (offered == inserted + zeroed + lost)\n",
        pmove_bench::table3::format(&rows)
    );
    assert_eq!(text, TABLE3_GOLDEN);
}

/// The live-CARM scenario (Fig. 9) — the query-heaviest path in the repo:
/// field discovery plus per-field windowed sums for three kernels — is
/// byte-identical through the parallel engine.
#[test]
fn fig9_live_carm_output_matches_captured_golden() {
    let result = pmove_bench::fig9::run();
    assert_eq!(pmove_bench::fig9::format(&result), FIG9_GOLDEN);
}

/// Interleave Table III ingest with cached queries: a cell's writes must
/// invalidate earlier cached results (no stale points), repeated reads
/// must serve identical bytes from cache, and the transport conservation
/// audit must balance with the cache enabled.
#[test]
fn cache_enabled_run_stays_fresh_and_conserves() {
    let registry = Registry::shared();
    let db = Database::with_obs("host", registry.clone());
    db.set_query_cache_capacity(64);

    let row1 = pmove_bench::table3::run_cell_into(&db, registry.clone(), "icl", 8.0, 4);
    let q = Query {
        projections: vec![Projection::Wildcard],
        measurement: "perfevent_hwcounters_UNHALTED_CORE_CYCLES".into(),
        tag_filters: Vec::new(),
        time_start: None,
        time_end: None,
        group_by_time: None,
    };
    let r1 = db.query_parsed(&q).unwrap();
    assert!(!r1.rows.is_empty());
    // Second read is served from cache — identical, and counted as a hit.
    let r1b = db.query_parsed(&q).unwrap();
    assert_eq!(r1, r1b);
    let snap = registry.snapshot();
    assert!(snap.counter("tsdb.cache.hits", &[]).unwrap_or(0) >= 1);

    // A second cell (different frequency → different timestamps) writes
    // the same measurements: the cached entry must be invalidated.
    let row2 = pmove_bench::table3::run_cell_into(&db, registry.clone(), "icl", 16.0, 4);
    let r2 = db.query_parsed(&q).unwrap();
    let fresh = db.query_with_mode(&q, ExecMode::Sequential).unwrap();
    assert_eq!(r2, fresh, "cached path served stale rows");
    assert!(
        r2.rows.len() > r1.rows.len(),
        "second cell should add rows ({} vs {})",
        r2.rows.len(),
        r1.rows.len()
    );
    let snap = registry.snapshot();
    assert!(snap.counter("tsdb.cache.invalidations", &[]).unwrap_or(0) >= 1);

    // Conservation still balances over both cells' transport counters.
    let cell = ConservationCell {
        offered: snap
            .counter("pcp.transport.values_offered", &[])
            .unwrap_or(0),
        inserted: snap
            .counter("pcp.transport.values_inserted", &[])
            .unwrap_or(0),
        zeroed: snap
            .counter("pcp.transport.values_zeroed", &[])
            .unwrap_or(0),
        lost: snap.counter("pcp.transport.values_lost", &[]).unwrap_or(0),
    };
    assert!(cell.holds(), "imbalance {}", cell.imbalance());
    assert_eq!(cell.inserted + cell.zeroed, row1.inserted + row2.inserted);
}
