//! Crash-recovery property of the columnar batch path: a batch rides
//! **one** WAL frame and one group commit, so a seeded MemDisk crash
//! mid-frame must leave recovery with the whole batch or none of it —
//! never a prefix. The dropped batch is retried (last-write-wins makes
//! the retry idempotent even if the frame secretly survived), after
//! which the recovered database is bit-identical to an uncrashed oracle,
//! the widened 8-term conservation ledger balances at every stage, and
//! no `pmove_gap` markers appear: an un-acknowledged batch is not data
//! loss, it is a retryable rejection.

use std::sync::Arc;

use pmove_pcp::ReplStats;
use pmove_tsdb::store::{FaultMode, FaultPlan, MemDisk, StoreOptions, Vfs};
use pmove_tsdb::{Database, FieldValue, Point, TsdbError, GAP_MEASUREMENT};

/// Deterministic per-case value stream (SplitMix64).
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adversarial payloads: ordinary magnitudes plus signed zeros and NaNs,
/// so "bit-identical after recovery" is tested where `==` would lie.
fn value(seed: &mut u64) -> f64 {
    let v = next(seed);
    match v % 23 {
        0 => -0.0,
        1 => f64::NAN,
        _ => (v % 1_000_000) as f64 / 7.0,
    }
}

const POINTS_PER_BATCH: usize = 24;
const FIELDS_PER_POINT: usize = 3;

/// Batch `i` writes its own measurement (`b{i}`), so "whole batch or
/// none" reads directly off per-measurement row counts after recovery.
fn batch(i: usize, seed: &mut u64) -> Vec<Point> {
    (0..POINTS_PER_BATCH)
        .map(|k| {
            let mut p = Point::new(format!("b{i}"))
                .tag("host", format!("h{}", k % 4))
                .timestamp(k as i64 * 1_000);
            for f in 0..FIELDS_PER_POINT {
                p = p.field(format!("_cpu{f}"), value(seed));
            }
            p
        })
        .collect()
}

fn rows_of(db: &Database, measurement: &str) -> usize {
    match db.query(&format!("SELECT * FROM \"{measurement}\"")) {
        Ok(r) => r.rows.len(),
        Err(TsdbError::UnknownMeasurement(_)) => 0,
        Err(e) => panic!("unexpected query error: {e:?}"),
    }
}

/// Bit-exact rendering of every stored cell.
fn cells(db: &Database) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    db.for_each_cell(&mut |key, ts, field, v| {
        let bits = match v {
            FieldValue::Float(x) => format!("{:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        let _ = writeln!(s, "{} {ts} {field}={bits}", key.canonical());
    });
    s
}

/// One crash case: two batches land, the third crashes `op_offset`
/// operations into its group commit. Returns whether the torn frame
/// survived recovery whole (true) or was dropped whole (false).
fn run_case(seed: u64, op_offset: u64, mode: FaultMode) -> bool {
    let values_per_batch = (POINTS_PER_BATCH * FIELDS_PER_POINT) as u64;
    let mut ledger = ReplStats::default();

    let disk = MemDisk::new(seed);
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let (db, _) = Database::open("batch", vfs.clone(), StoreOptions::default()).unwrap();

    let mut value_seed = seed;
    let batches: Vec<Vec<Point>> = (0..3).map(|i| batch(i, &mut value_seed)).collect();

    for b in &batches[..2] {
        let out = db.write_batch(b.clone()).unwrap();
        assert!(out.all_accepted());
        ledger.reports_offered += 1;
        ledger.values_offered += values_per_batch;
        ledger.values_inserted += values_per_batch;
    }
    assert!(ledger.conserved());

    // The crash lands inside batch 2's single WAL frame / group commit.
    disk.schedule_fault(FaultPlan {
        crash_at_op: disk.ops_done() + op_offset,
        mode,
    });
    let err = db.write_batch(batches[2].clone());
    assert!(err.is_err(), "commit on a crashed disk must fail");
    assert!(disk.crashed());
    // Un-acknowledged: the caller parks the batch for retry. In ledger
    // terms the values are hinted, not lost — still fully accounted.
    ledger.reports_offered += 1;
    ledger.values_offered += values_per_batch;
    ledger.values_hinted += values_per_batch;
    assert!(ledger.conserved(), "crash left the ledger unbalanced");
    drop(db);

    // Restart and recover. The torn frame is admitted whole (its bytes
    // and CRC all reached the platter) or dropped whole (torn tail fails
    // the frame CRC) — never replayed as a prefix.
    disk.restart();
    let (db, report) = Database::open("batch", vfs, StoreOptions::default()).unwrap();
    assert_eq!(rows_of(&db, "b0"), POINTS_PER_BATCH);
    assert_eq!(rows_of(&db, "b1"), POINTS_PER_BATCH);
    let b2_rows = rows_of(&db, "b2");
    assert!(
        b2_rows == 0 || b2_rows == POINTS_PER_BATCH,
        "recovery admitted a prefix of the batch: {b2_rows} of {POINTS_PER_BATCH} rows (seed {seed}, offset {op_offset}, {mode:?})"
    );
    let survived = b2_rows == POINTS_PER_BATCH;
    if survived {
        ledger.values_inserted += values_per_batch;
        ledger.values_hinted -= values_per_batch;
    }
    assert!(ledger.conserved());

    // A torn commit is not corruption: nothing was quarantined, and no
    // gap markers blame the dropped batch for "lost" data.
    assert_eq!(report.chunks_skipped, 0);
    assert!(db.store().unwrap().quarantined().is_empty());
    assert!(matches!(
        db.query(&format!("SELECT * FROM \"{GAP_MEASUREMENT}\"")),
        Err(TsdbError::UnknownMeasurement(_))
    ));

    // Retry the whole batch: idempotent if it survived (last write wins
    // on identical cells), completing if it was dropped.
    let out = db.write_batch(batches[2].clone()).unwrap();
    assert!(out.all_accepted());
    assert_eq!(rows_of(&db, "b2"), POINTS_PER_BATCH);
    if !survived {
        ledger.values_inserted += values_per_batch;
        ledger.values_hinted -= values_per_batch;
    }
    assert!(ledger.conserved(), "retry left the ledger unbalanced");
    assert_eq!(ledger.values_hinted, 0);
    assert_eq!(ledger.values_lost, 0);

    // The recovered-and-retried state is bit-identical to an uncrashed
    // oracle ingesting the same stream row-at-a-time.
    let oracle = Database::new("oracle");
    let mut oracle_seed = seed;
    for i in 0..3 {
        for p in batch(i, &mut oracle_seed) {
            oracle.write_point(p).unwrap();
        }
    }
    assert_eq!(cells(&db), cells(&oracle), "recovered cells diverged");

    // Still no gap markers after the retry.
    assert!(matches!(
        db.query(&format!("SELECT * FROM \"{GAP_MEASUREMENT}\"")),
        Err(TsdbError::UnknownMeasurement(_))
    ));
    survived
}

/// Seeded sweep over crash positions inside the frame write and the
/// commit sync, torn-tail and clean-stop damage models. Each case
/// asserts the whole-OR-none disjunction; the sweep asserts the drop
/// side actually occurs (a crash mid-commit that always persisted the
/// frame would mean the fault never landed). The survive side — bytes
/// fully durable before the crash — is pinned by
/// `acknowledged_batches_survive_clean_crash` below; a torn tail
/// landing on exactly the full frame length is possible but
/// astronomically rare, so it is not required here.
#[test]
fn torn_batch_frame_recovers_whole_or_none() {
    let mut dropped = 0u32;
    for seed in 0..10u64 {
        for op_offset in 1..=2 {
            for mode in [FaultMode::TornTail, FaultMode::CleanStop] {
                if !run_case(seed, op_offset, mode) {
                    dropped += 1;
                }
            }
        }
    }
    assert!(dropped > 0, "no crash ever dropped the batch frame");
}

/// A crash between batches (frame fully committed) loses nothing: the
/// next open recovers every acknowledged batch.
#[test]
fn acknowledged_batches_survive_clean_crash() {
    let disk = MemDisk::new(99);
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let (db, _) = Database::open("batch", vfs.clone(), StoreOptions::default()).unwrap();
    let mut seed = 99u64;
    for i in 0..3 {
        assert!(db.write_batch(batch(i, &mut seed)).unwrap().all_accepted());
    }
    drop(db);
    disk.schedule_fault(FaultPlan {
        crash_at_op: disk.ops_done() + 1,
        mode: FaultMode::CleanStop,
    });
    disk.restart();
    let (db, _) = Database::open("batch", vfs, StoreOptions::default()).unwrap();
    for i in 0..3 {
        assert_eq!(rows_of(&db, &format!("b{i}")), POINTS_PER_BATCH);
    }
}
