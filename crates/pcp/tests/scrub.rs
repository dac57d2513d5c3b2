//! End-to-end integrity property tests: seeded latent bit-rot on one
//! replica of an RF=3 durable set is found by that replica's scrub step
//! (`Database::scrub_tick`), quarantined (moved aside, never deleted) and
//! rebuilt from what survived, then refilled by anti-entropy
//! (`ReplicaSet::repair_until_converged`) — the replicated daemon's scrub
//! and repair duties, step by step. Quorum reads through the parallel
//! engine are then bit-identical (`f64::to_bits`) to an uncorrupted
//! single-node oracle, every cell a rebuild dropped is a cell the repair
//! restored, and the coordinator's 5-term ledger (offered == inserted +
//! zeroed + lost + evicted + hinted) balances throughout: rot never
//! touches it.
//!
//! Corruption is bounded to RF − W = 1 victim replica, matching the
//! budget quorum replication absorbs. Case count defaults to 32 (each
//! case runs 3 durable replicas + scrub + repair + queries) and is
//! raised in CI via `PMOVE_SCRUB_CASES`. A fixed-seed test holds one
//! scrub pass to finding every chunk that 1, 4 or 8 flips rot.

use pmove_hwsim::FaultSchedule;
use pmove_pcp::{ReplShipper, ReplStats};
use pmove_tsdb::repl::{ReplConfig, ReplicaSet};
use pmove_tsdb::store::{RotSchedule, Scrubber, StoreOptions};
use pmove_tsdb::{Database, ExecMode, Point, Query, TsdbError};
use proptest::prelude::*;

fn scrub_cases() -> u32 {
    std::env::var("PMOVE_SCRUB_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Deterministic per-case value stream (SplitMix64).
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Field value stream with adversarial payloads: ordinary magnitudes plus
/// occasional signed zeros and NaNs, so "bit-identical after repair" is
/// tested against the cases where `==` would lie.
fn value(seed: &mut u64) -> f64 {
    let v = next(seed);
    match v % 23 {
        0 => -0.0,
        1 => f64::NAN,
        _ => (v % 1_000_000) as f64 / 7.0,
    }
}

fn report(t_ns: i64, metric: usize, domain: usize, seed: &mut u64) -> Point {
    let mut p = Point::new(format!("m{metric}"))
        .tag("tag", "scrub")
        .timestamp(t_ns);
    for i in 0..domain {
        p = p.field(format!("_cpu{i}"), value(seed));
    }
    p
}

#[derive(Clone, Copy)]
struct Case {
    seed: u64,
    domain: usize,
    n_metrics: usize,
    duration_s: u32,
    victim: usize,
}

/// 4 Hz keeps `Shipper::zero_probability` at exactly 0, so the oracle and
/// the replicated pipeline see the identical value stream.
const FREQ_HZ: f64 = 4.0;
/// Full-store verification period handed to every scrubber.
const SCRUB_PERIOD_S: f64 = 2.0;

/// What a run of sweeps did, summed over the sweeps: the scrub work, the
/// cells each quarantine's rebuild dropped and the cells anti-entropy
/// then restored onto the rebuilt replicas, both counted as cell-count
/// changes so last-write-wins duplicates are never counted twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sweeps {
    files_checked: u64,
    bytes_verified: u64,
    chunks_quarantined: u64,
    cells_dropped: u64,
    cells_restored: u64,
    ranges_repaired: u64,
}

/// One sweep at `t`: every replica's scrub step, then anti-entropy until
/// the set converges, which must happen within 4 rounds.
fn sweep(set: &ReplicaSet, scrubbers: &mut [Scrubber], t: f64, total: &mut Sweeps) {
    let mut rebuilt = Vec::new();
    for (i, (db, scrubber)) in set.replicas().iter().zip(scrubbers).enumerate() {
        let before = db.cell_count();
        let r = db
            .scrub_tick(scrubber, t)
            .unwrap()
            .expect("a durable replica");
        total.files_checked += r.files_checked;
        total.bytes_verified += r.bytes_verified;
        if !r.quarantined.is_empty() {
            total.chunks_quarantined += r.quarantined.len() as u64;
            total.cells_dropped += before - db.cell_count();
            rebuilt.push((i, db.cell_count()));
        }
    }
    let repair = set.repair_until_converged(4).unwrap();
    assert!(repair.converged, "sweep at t={t} left the set diverged");
    total.ranges_repaired += repair.ranges_repaired;
    for (i, base) in rebuilt {
        total.cells_restored += set.replica(i).cell_count() - base;
    }
}

/// One scrubber per replica, each verifying its store once every
/// [`SCRUB_PERIOD_S`].
fn scrubbers(set: &ReplicaSet) -> Vec<Scrubber> {
    (0..set.len())
        .map(|_| Scrubber::new(SCRUB_PERIOD_S))
        .collect()
}

/// Chunks stay where flushes put them: thresholds high enough that no
/// automatic flush or compaction moves data under the rot schedule.
fn manual_opts() -> StoreOptions {
    StoreOptions {
        flush_threshold_rows: 1_000_000,
        compact_min_chunks: 1_000_000,
    }
}

/// One full run: healthy links throughout; every point lands on all RF
/// replicas and the oracle. A flush every 8 ticks and one at the end turn
/// the replicas' memtables into durable chunks, `flips` seeded bit flips
/// rot the victim's chunk namespace, then scrub sweeps run for
/// `sweep_periods` full-pass periods: every rotted chunk must be found,
/// quarantined, and repaired from the healthy quorum by the end.
fn run_case(case: &Case, flips: u32, sweep_periods: f64) -> (ReplStats, Sweeps, u64) {
    let oracle = Database::new("oracle");
    let (set, _) = ReplicaSet::durable(
        "scrub",
        ReplConfig {
            hint_capacity_values: 1 << 20,
            ..ReplConfig::default()
        },
        case.seed,
        manual_opts(),
    )
    .unwrap();
    let schedules = vec![FaultSchedule::none(); set.len()];
    let mut coord =
        ReplShipper::new(&set, schedules, &["scrub", &format!("{:x}", case.seed)]).unwrap();

    let ticks = (case.duration_s as f64 * FREQ_HZ) as u32;
    let mut value_seed = case.seed;
    for tick in 0..ticks {
        let t = (tick + 1) as f64 / FREQ_HZ;
        coord.heartbeat(t);
        for m in 0..case.n_metrics {
            let p = report((t * 1e9) as i64 + m as i64, m, case.domain, &mut value_seed);
            oracle.write_point(p.clone()).unwrap();
            coord.ship(t, p, FREQ_HZ);
        }
        // At least two chunks per replica, so a flip can land in any
        // generation of durable data.
        if tick % 8 == 3 {
            for r in set.replicas() {
                r.flush().unwrap();
            }
        }
    }
    for r in set.replicas() {
        r.flush().unwrap();
    }

    // Latent rot: seeded single-bit flips in the victim's chunk namespace
    // (one flip always breaks the CRC; several could land on the same
    // bit twice and cancel, so only fixed seeds fire more than one).
    let rot = RotSchedule::random(case.seed, flips, 0.0, case.duration_s as f64);
    set.disks()[case.victim].schedule_rot(rot.with_prefix("chunk-"));
    let fired = set.disks()[case.victim].advance_rot(case.duration_s as f64 + 1.0);
    assert_eq!(
        fired.len(),
        flips as usize,
        "rot must fire after the flushes"
    );
    let mut rotted: Vec<&str> = fired.iter().map(|r| r.file.as_str()).collect();
    rotted.sort_unstable();
    rotted.dedup();

    // Scrub sweeps: detection, quarantine, rebuild, and anti-entropy
    // repair all happen inside the sweep loop.
    let mut scrubbers = scrubbers(&set);
    let mut total = Sweeps::default();
    let mut t = case.duration_s as f64 + 2.0;
    let t_end = t + sweep_periods * SCRUB_PERIOD_S;
    while t <= t_end {
        sweep(&set, &mut scrubbers, t, &mut total);
        t += 0.5;
    }
    // Every rotted chunk, and only those, sits in the victim's quarantine,
    // whether a scrub tick or the rebuild's store scan found it.
    let victim = set.replica(case.victim).store().unwrap();
    assert_eq!(victim.quarantined().len(), rotted.len(), "{rotted:?}");
    drop(victim);

    // R-quorum read through the parallel engine vs the sequential oracle.
    let reachable = coord.reachable();
    let mut compared = 0u64;
    for m in 0..case.n_metrics {
        let cols: Vec<String> = (0..case.domain).map(|i| format!("\"_cpu{i}\"")).collect();
        let text = format!("SELECT {} FROM \"m{m}\"", cols.join(", "));
        let q = Query::parse(&text).unwrap();
        let want = oracle.query_with_mode(&q, ExecMode::Sequential).unwrap();
        let got = set
            .quorum_read_with_mode(&q, &reachable, ExecMode::Parallel(4))
            .unwrap();
        assert_eq!(want.rows.len(), got.rows.len(), "row count for m{m}");
        for (a, b) in want.rows.iter().zip(&got.rows) {
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.values.len(), b.values.len());
            for (col, va) in &a.values {
                let vb = &b.values[col];
                assert_eq!(
                    va.map(f64::to_bits),
                    vb.map(f64::to_bits),
                    "column {col} diverged at ts {}",
                    a.timestamp
                );
                compared += 1;
            }
        }
    }
    (coord.stats(), total, compared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(scrub_cases()))]

    /// Headline invariant: latent rot within the RF − W budget is fully
    /// detected and quarantined by the scrub step, anti-entropy restores
    /// the victim bit-identically from the healthy quorum, and the
    /// coordinator's ledger balances.
    #[test]
    fn rot_is_detected_quarantined_and_repaired_bit_identically(
        seed in any::<u64>(),
        domain in 1usize..=8,
        n_metrics in 1usize..=3,
        duration_s in 2u32..=4,
        victim in 0usize..3,
    ) {
        let case = Case { seed, domain, n_metrics, duration_s, victim };
        let (st, total, compared) = run_case(&case, 1, 2.0);

        // The flip landed in a durable chunk: the scrubber must find it
        // within one full pass, quarantine it, and repair every cell.
        prop_assert!(total.chunks_quarantined >= 1, "rot was never detected");
        prop_assert!(total.cells_dropped > 0, "quarantine dropped no cells");
        prop_assert_eq!(total.cells_restored, total.cells_dropped);

        // The ledger counts what was offered; rot never enters it.
        prop_assert!(
            st.conserved(),
            "offered={} != accounted={} ({st:?})",
            st.values_offered, st.accounted()
        );
        prop_assert_eq!(st.values_inserted, st.values_offered);
        prop_assert!(compared > 0, "comparison must cover actual cells");

        // Bit-reproducibility: the same case replays to identical stats.
        let (st2, total2, compared2) = run_case(&case, 1, 2.0);
        prop_assert_eq!(st, st2, "scrubbed run is not deterministic");
        prop_assert_eq!(total, total2);
        prop_assert_eq!(compared, compared2);
    }

    /// No-fault control: with no rot scheduled the scrubber verifies the
    /// whole store and finds nothing — zero quarantines and zero repair
    /// traffic.
    #[test]
    fn clean_stores_scrub_without_repair_traffic(
        seed in any::<u64>(),
        domain in 1usize..=6,
        n_metrics in 1usize..=2,
    ) {
        let (set, _) = ReplicaSet::durable(
            "clean",
            ReplConfig::default(),
            seed,
            manual_opts(),
        ).unwrap();
        let schedules = vec![FaultSchedule::none(); set.len()];
        let mut coord = ReplShipper::new(&set, schedules, &["ctrl"]).unwrap();
        let mut value_seed = seed;
        for tick in 0..16u32 {
            let t = (tick + 1) as f64 / FREQ_HZ;
            coord.heartbeat(t);
            for m in 0..n_metrics {
                let p = report((t * 1e9) as i64 + m as i64, m, domain, &mut value_seed);
                coord.ship(t, p, FREQ_HZ);
            }
        }
        for r in set.replicas() {
            r.flush().unwrap();
        }
        let mut scrubbers = scrubbers(&set);
        let mut total = Sweeps::default();
        let mut t = 5.0;
        while t <= 5.0 + 2.0 * SCRUB_PERIOD_S {
            sweep(&set, &mut scrubbers, t, &mut total);
            t += 0.5;
        }
        prop_assert_eq!(total.chunks_quarantined, 0);
        prop_assert_eq!(total.cells_dropped, 0);
        prop_assert_eq!(total.cells_restored, 0);
        prop_assert_eq!(total.ranges_repaired, 0, "clean scrub moved data");
        prop_assert!(total.bytes_verified > 0, "scrubber verified nothing");
        let st = coord.stats();
        prop_assert!(st.conserved(), "{st:?}");
        prop_assert!(set.converged());
    }
}

/// One full scrub pass finds every chunk that 1, 4 or 8 seeded flips rot
/// across a 20 s run's eleven flushed generations, and anti-entropy
/// restores the victim bit-identically, every dropped cell of it.
#[test]
fn one_pass_detects_and_repairs_every_rotted_chunk() {
    for flips in [1, 4, 8] {
        let case = Case {
            seed: 0xB17F_11B5 ^ u64::from(flips),
            domain: 8,
            n_metrics: 2,
            duration_s: 20,
            victim: 1,
        };
        let (st, total, compared) = run_case(&case, flips, 1.0);
        // The pass reached every file: 3 replicas x (11 chunks + WAL).
        assert!(total.files_checked >= 3 * 12, "flips={flips}: {total:?}");
        assert!(total.cells_dropped > 0, "flips={flips}: {total:?}");
        assert_eq!(total.cells_restored, total.cells_dropped, "flips={flips}");
        assert!(st.conserved(), "flips={flips}: {st:?}");
        assert!(compared > 0);
    }
}

/// Regression: the scrub step's rebuild after a quarantine must bump the
/// query-cache write versions, so a query that was answered (and cached)
/// before the corruption cannot be served stale afterwards. The victim's
/// only chunk vanishes into quarantine, so the post-rebuild query errors
/// with `UnknownMeasurement` — a stale cache hit would have returned the
/// old rows instead.
#[test]
fn quarantine_rebuild_invalidates_cached_queries() {
    let (set, _) = ReplicaSet::durable("cache", ReplConfig::default(), 77, manual_opts()).unwrap();
    let db = set.replica(1);
    let mut seed = 77u64;
    for t in 0..12 {
        db.write_point(report(t * 1_000_000_000, 0, 3, &mut seed))
            .unwrap();
    }
    db.flush().unwrap().unwrap();
    // Warm the result cache.
    let q = "SELECT \"_cpu0\" FROM \"m0\"";
    assert_eq!(db.query(q).unwrap().rows.len(), 12);
    // Rot the only chunk, scrub until the step quarantines and rebuilds.
    set.disks()[1].schedule_rot(RotSchedule::none().at(1.0, 1).with_prefix("chunk-"));
    set.disks()[1].advance_rot(1.0);
    let mut scrubber = Scrubber::new(SCRUB_PERIOD_S);
    let mut t = 2.0;
    while db.store().unwrap().quarantined().is_empty() {
        db.scrub_tick(&mut scrubber, t).unwrap();
        t += 0.5;
        assert!(t < 60.0, "scrub never found the rotted chunk");
    }
    // All rows lived in the quarantined chunk: the measurement is gone.
    // A stale cache hit would have answered with the 12 old rows.
    assert!(matches!(db.query(q), Err(TsdbError::UnknownMeasurement(_))));
}
