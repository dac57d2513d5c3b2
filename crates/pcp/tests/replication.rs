//! Replication convergence property tests — the PR's headline invariant:
//! after a fault schedule ends and repair rounds run, an R-quorum read
//! through the parallel query engine is bit-identical (`f64::to_bits`)
//! to a single-node sequential oracle that received every offered point,
//! and the widened 6-term conservation equation
//! (offered == inserted + zeroed + lost + pending + evicted + hinted)
//! stays balanced throughout.
//!
//! Node kills are bounded by RF − W (one victim at RF=3, W=2), matching
//! the fault budget quorum replication is supposed to absorb. Case count
//! defaults to 64 (each case runs 3 replicas + repair + queries) and is
//! raised in CI via `PMOVE_REPL_CASES`. One fixed-schedule test sweeps
//! the replication factor past that budget: a primary partition that
//! RF=1 loses values to and RF=3/W=2 rides out.

use pmove_hwsim::{FaultKind, FaultSchedule};
use pmove_pcp::{ReplShipper, ReplStats};
use pmove_tsdb::repl::{ReplConfig, ReplicaSet};
use pmove_tsdb::{Database, ExecMode, Point, Query};
use proptest::prelude::*;

fn repl_cases() -> u32 {
    std::env::var("PMOVE_REPL_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
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
/// occasional signed zeros and NaNs, so "bit-identical" is tested against
/// the cases where `==` would lie.
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
        .tag("tag", "repl")
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
/// the replicated pipeline see the identical value stream (the stale-read
/// zero artefact is exercised separately in the coordinator unit tests).
const FREQ_HZ: f64 = 4.0;

/// Ship `case`'s stream through quorum writes over `set` under
/// `schedules`, mirroring every offered point into `oracle`, then heal:
/// heartbeats past the last fault see every replica, lift any quarantine
/// and replay the parked hints.
fn ship(
    case: &Case,
    set: &ReplicaSet,
    schedules: Vec<FaultSchedule>,
    oracle: &Database,
) -> (ReplStats, Vec<bool>) {
    let fault_tail = schedules.iter().map(FaultSchedule::last_fault_end_s);
    let fault_tail = fault_tail.fold(0.0, f64::max);
    let mut coord =
        ReplShipper::new(set, schedules, &["repl", &format!("{:x}", case.seed)]).unwrap();
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
    }
    let t_end = (case.duration_s as f64).max(fault_tail) + 1.0;
    for k in 0..3 {
        coord.heartbeat(t_end + k as f64);
    }
    (coord.stats(), coord.reachable())
}

/// One full run: the oracle receives every offered point; the coordinator
/// routes the same stream through quorum writes under the case's fault
/// schedule, then heals (heartbeats → hint replay, anti-entropy → repair).
fn run_case(case: &Case) -> (ReplStats, u64) {
    let oracle = Database::new("oracle");
    let set = ReplicaSet::in_memory(
        "repl",
        ReplConfig {
            hint_capacity_values: 1 << 20,
            ..ReplConfig::default()
        },
    )
    .unwrap();
    // Fault budget: exactly one victim replica (RF − W = 1) draws a
    // random schedule — partitions, brown-outs, degraded bandwidth.
    let mut schedules = vec![FaultSchedule::none(); set.len()];
    schedules[case.victim] = FaultSchedule::random(case.seed, case.duration_s as f64);
    let (stats, reachable) = ship(case, &set, schedules, &oracle);

    // Anti-entropy: replicas must converge bit-identically.
    let repair = set.repair_until_converged(4).unwrap();
    assert!(repair.converged, "repair did not converge: {repair:?}");

    // R-quorum read through the parallel engine vs the sequential oracle.
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
    (stats, compared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(repl_cases()))]

    /// Headline invariant: quorum reads after repair are bit-identical to
    /// the oracle, conservation balances with all six terms, and nothing
    /// is lost when kills stay within the RF − W budget.
    #[test]
    fn quorum_reads_converge_to_oracle_after_repair(
        seed in any::<u64>(),
        domain in 1usize..=12,
        n_metrics in 1usize..=3,
        duration_s in 2u32..=6,
        victim in 0usize..3,
    ) {
        let case = Case { seed, domain, n_metrics, duration_s, victim };
        let (st, compared) = run_case(&case);
        prop_assert!(
            st.conserved(),
            "offered={} != accounted={} ({st:?})",
            st.values_offered, st.accounted()
        );
        let expected =
            (case.duration_s as f64 * FREQ_HZ) as u64 * case.n_metrics as u64 * case.domain as u64;
        prop_assert_eq!(st.values_offered, expected);
        // 4 Hz: no stale-read zeros; generous hints + healed replica: no
        // loss, no evictions, every ledger hint replayed.
        prop_assert_eq!(st.values_zeroed, 0);
        prop_assert_eq!(st.values_lost, 0);
        prop_assert_eq!(st.values_evicted, 0);
        prop_assert_eq!(st.values_hinted, 0);
        prop_assert_eq!(st.values_inserted, expected);
        prop_assert_eq!(st.values_spill_pending, 0);
        prop_assert!(compared > 0, "comparison must cover actual cells");

        // Bit-reproducibility: the same case replays to identical stats.
        let (st2, compared2) = run_case(&case);
        prop_assert_eq!(st, st2, "replicated run is not deterministic");
        prop_assert_eq!(compared, compared2);
    }

    /// Fault-free control: a healthy replica set needs no repair at all —
    /// every write lands on all RF replicas and the Merkle roots already
    /// agree when the run ends.
    #[test]
    fn healthy_runs_need_no_repair(
        seed in any::<u64>(),
        domain in 1usize..=8,
        n_metrics in 1usize..=2,
    ) {
        let set = ReplicaSet::in_memory("repl", ReplConfig::default()).unwrap();
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
        let st = coord.stats();
        prop_assert!(st.conserved());
        prop_assert_eq!(st.quorum_write_failures, 0);
        prop_assert_eq!(st.hints_queued, 0);
        prop_assert_eq!(st.failovers, 0);
        prop_assert!(set.converged(), "healthy run already bit-identical");
        let repair = set.repair_until_converged(2).unwrap();
        prop_assert_eq!(repair.rounds, 0);
        prop_assert_eq!(repair.ranges_repaired, 0);
    }
}

/// The primary partitioned for 20 s of a 60 s run, hint queues bounded at
/// 2,048 values (the partition offers ~5,000): at RF=1 the overflow is
/// evicted and there is no one to fail over to; at RF=3/W=2 the primary
/// fails over and the majority loses nothing. Every RF of the sweep
/// balances its ledger and converges after repair.
#[test]
fn majority_quorum_rides_out_the_partition_that_rf1_loses_to() {
    let case = Case {
        seed: 0xC4A0_5EED,
        domain: 16,
        n_metrics: 4,
        duration_s: 60,
        victim: 0,
    };
    let cell = |rf: usize| {
        let w = rf / 2 + 1;
        let cfg = ReplConfig {
            replication_factor: rf,
            write_quorum: w,
            read_quorum: w,
            hint_capacity_values: 2048,
        };
        let set = ReplicaSet::in_memory("repl", cfg).unwrap();
        let mut schedules = vec![FaultSchedule::none(); rf];
        schedules[case.victim] = FaultSchedule::none().with_window(20.0, 40.0, FaultKind::LinkDown);
        let (st, _) = ship(&case, &set, schedules, &Database::new("oracle"));
        assert!(st.conserved(), "rf={rf}: {st:?}");
        assert!(set.repair_until_converged(8).unwrap().converged, "rf={rf}");
        st
    };
    let [rf1, _, rf3, _] = [1, 2, 3, 5].map(cell);
    assert!(rf1.values_evicted > 0 && rf1.failovers == 0, "{rf1:?}");
    assert_eq!((rf3.values_lost, rf3.values_evicted), (0, 0), "{rf3:?}");
    assert!(rf3.failovers > 0, "{rf3:?}");
}
