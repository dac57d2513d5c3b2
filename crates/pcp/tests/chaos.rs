//! Chaos property tests: the transport's loss-conservation identity must
//! survive *arbitrary* injected faults — link flaps, bandwidth collapse,
//! backend brown-outs — with the resilient mode on or off, and every run
//! must replay bit-identically from its seed. A separate property pins
//! the Table III contract: an attached-but-empty fault schedule changes
//! nothing about the default transport, and a fixed-schedule test pins
//! what resilience buys: strictly less loss under each of three faults.
//!
//! Case count defaults to 256 and is raised in CI's chaos job via the
//! `PMOVE_CHAOS_CASES` environment variable.

use pmove_hwsim::network::LinkSpec;
use pmove_hwsim::{FaultKind, FaultSchedule};
use pmove_obs::{Registry, Span, Tracer};
use pmove_pcp::{ReplShipOutcome, ReplShipper, ReplStats};
use pmove_pcp::{ShipOutcome, Shipper, ShipperStats};
use pmove_tsdb::repl::{ReplConfig, ReplicaSet};
use pmove_tsdb::{Database, FieldValue, Point};
use proptest::prelude::*;
use std::sync::Arc;

fn chaos_cases() -> u32 {
    std::env::var("PMOVE_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn trace_cases() -> u32 {
    std::env::var("PMOVE_TRACE_CASES")
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

fn report(t_ns: i64, metric: usize, domain: usize, seed: &mut u64) -> Point {
    let mut p = Point::new(format!("perfevent_hwcounters_m{metric}"))
        .tag("tag", "chaos")
        .timestamp(t_ns);
    for i in 0..domain {
        p = p.field(format!("_cpu{i}"), (next(seed) % 1_000_000) as f64);
    }
    p
}

struct Case {
    seed: u64,
    freq: u32,
    domain: usize,
    n_metrics: usize,
    duration_s: u32,
}

/// One full run; returns the final stats and the DB row count.
fn run(case: &Case, fault: Option<FaultSchedule>, resilient: bool) -> (ShipperStats, usize) {
    let freq_hz = case.freq as f64;
    let db = Database::new("host");
    let mut shipper = Shipper::new(
        &db,
        LinkSpec::mbit_100(),
        1.0 / freq_hz,
        &["chaos", &format!("{:x}", case.seed)],
    );
    let fault_tail_s = fault.as_ref().map(|f| f.last_fault_end_s()).unwrap_or(0.0);
    if let Some(schedule) = fault {
        shipper = shipper.with_fault_schedule(schedule);
    }
    if resilient {
        shipper = shipper.with_resilience();
    }
    let ticks = case.freq * case.duration_s;
    let mut value_seed = case.seed;
    let mut t = 0.0;
    for _ in 0..ticks {
        for m in 0..case.n_metrics {
            shipper.ship(
                t,
                report((t * 1e9) as i64 + m as i64, m, case.domain, &mut value_seed),
                freq_hz,
            );
        }
        t += 1.0 / freq_hz;
    }
    // Give the resilient transport idle time after the schedule ends so
    // spilled reports get their retry chances against a healthy backend.
    if resilient {
        let end_s = case.duration_s as f64;
        let tail = fault_tail_s.max(end_s);
        let mut t_idle = end_s;
        while t_idle <= tail + 10.0 {
            shipper.idle_tick(t_idle);
            t_idle += 0.5;
        }
    }
    (shipper.stats(), db.total_rows())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    /// The 5-term identity holds under any fault schedule, resilient or
    /// not, and the whole run replays bit-identically from its seed.
    #[test]
    fn conservation_survives_arbitrary_faults(
        seed in any::<u64>(),
        freq in 1u32..=32,
        domain in 1usize..=64,
        n_metrics in 1usize..=4,
        duration_s in 2u32..=6,
        resilient in any::<bool>(),
    ) {
        let case = Case { seed, freq, domain, n_metrics, duration_s };
        let fault = FaultSchedule::random(seed, duration_s as f64);

        let (st, rows) = run(&case, Some(fault.clone()), resilient);
        prop_assert!(
            st.conserved(),
            "offered={} != accounted={} (inserted={} zeroed={} lost={} pending={} evicted={}) fault={:?}",
            st.values_offered, st.accounted(), st.values_inserted, st.values_zeroed,
            st.values_lost, st.values_spill_pending, st.values_evicted, fault
        );
        // Everything the sampler produced was offered.
        let expected = (freq * duration_s) as u64 * n_metrics as u64 * domain as u64;
        prop_assert_eq!(st.values_offered, expected);
        // Without resilience there is no spill machinery to populate.
        if !resilient {
            prop_assert_eq!(st.values_spilled, 0);
            prop_assert_eq!(st.values_spill_pending, 0);
            prop_assert_eq!(st.values_evicted, 0);
            prop_assert_eq!(st.values_recovered, 0);
            prop_assert_eq!(st.retries, 0);
        }
        // The DB never holds more report rows than inserted values imply.
        prop_assert!(rows as u64 <= st.values_inserted + st.values_zeroed + st.gap_markers * 2);

        // Determinism: the identical configuration replays to identical
        // stats and identical DB contents.
        let (st2, rows2) = run(&case, Some(fault), resilient);
        prop_assert_eq!(st, st2, "chaos run is not deterministic per seed");
        prop_assert_eq!(rows, rows2);
    }

    /// Table III contract: attaching an *empty* schedule (and no
    /// resilience) leaves the default transport bit-identical — same
    /// stats, same rows — so the paper-mode loss model is untouched by
    /// the chaos machinery.
    #[test]
    fn empty_schedule_reproduces_default_mode_exactly(
        seed in any::<u64>(),
        freq in 1u32..=64,
        domain in 1usize..=64,
        n_metrics in 1usize..=4,
        duration_s in 1u32..=4,
    ) {
        let case = Case { seed, freq, domain, n_metrics, duration_s };
        let (plain, plain_rows) = run(&case, None, false);
        let (scheduled, scheduled_rows) = run(&case, Some(FaultSchedule::none()), false);
        prop_assert_eq!(plain, scheduled);
        prop_assert_eq!(plain_rows, scheduled_rows);
        prop_assert_eq!(plain.values_spilled, 0);
        prop_assert_eq!(plain.gap_markers, 0);
    }
}

/// Resilience strictly reduces what a fault costs under each of three
/// fixed 60 s schedules: a 2 s link outage every 10 s, a backend that
/// accepts 30% of inserts over the middle third, and link capacity cut
/// to 2% (below the offered ~256 values/s) over the middle half.
#[test]
fn resilient_mode_reduces_loss_under_each_fixed_schedule() {
    let flaps = (0..6).fold(FaultSchedule::none(), |s, k| {
        let t = 10.0 * k as f64 + 8.0;
        s.with_window(t, t + 2.0, FaultKind::LinkDown)
    });
    let schedules = [
        ("link-flaps", flaps),
        (
            "db-brownout",
            FaultSchedule::none().with_window(20.0, 40.0, FaultKind::BackendBrownout(0.3)),
        ),
        (
            "bandwidth-collapse",
            FaultSchedule::none().with_window(15.0, 45.0, FaultKind::BandwidthDegraded(0.02)),
        ),
    ];
    let case = Case {
        seed: 0xC4A0_5EED,
        freq: 4,
        domain: 16,
        n_metrics: 4,
        duration_s: 60,
    };
    for (name, schedule) in schedules {
        let (off, _) = run(&case, Some(schedule.clone()), false);
        let (on, _) = run(&case, Some(schedule), true);
        assert!(off.conserved() && on.conserved(), "{name}: {off:?} {on:?}");
        assert_eq!(
            off.values_offered, on.values_offered,
            "{name}: same workload"
        );
        let lost_off = off.values_lost + off.values_evicted;
        let lost_on = on.values_lost + on.values_evicted;
        assert!(
            lost_off > 0,
            "{name}: the schedule must hurt the default mode"
        );
        assert!(lost_on < lost_off, "{name}: {lost_on} vs {lost_off} lost");
        assert!(on.values_recovered > 0, "{name}: nothing was recovered");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(trace_cases()))]

    /// Trace conservation under chaos: every offered report's trace
    /// terminates exactly once — in a terminal
    /// status from the allowed set — and no span is left open (an
    /// `unclosed` span marks an orphan and fails the property).
    #[test]
    fn every_trace_terminates_under_arbitrary_faults(
        seed in any::<u64>(),
        freq in 1u32..=16,
        domain in 1usize..=32,
        n_metrics in 1usize..=4,
        duration_s in 2u32..=5,
        resilient in any::<bool>(),
    ) {
        let case = Case { seed, freq, domain, n_metrics, duration_s };
        let fault = FaultSchedule::random(seed, duration_s as f64);

        let freq_hz = case.freq as f64;
        let registry = Registry::shared();
        // Retain every trace for the audit.
        let tracer = Arc::new(Tracer::new(seed, 100_000));
        registry.set_tracer(tracer.clone());
        let db = Database::new("host");
        let mut shipper = Shipper::new(
            &db,
            LinkSpec::mbit_100(),
            1.0 / freq_hz,
            &["chaos", &format!("{:x}", case.seed)],
        )
        .with_obs(registry.clone())
        .with_fault_schedule(fault.clone());
        if resilient {
            shipper = shipper.with_resilience();
        }

        let ticks = case.freq * case.duration_s;
        let mut value_seed = case.seed;
        let mut t = 0.0;
        let mut offered_reports = 0u64;
        for _ in 0..ticks {
            for m in 0..case.n_metrics {
                shipper.ship_span(
                    t,
                    report((t * 1e9) as i64 + m as i64, m, case.domain, &mut value_seed),
                    freq_hz,
                    Span::root(Some(&tracer), "pcp.sample", (t * 1e9) as u64),
                );
                offered_reports += 1;
            }
            t += 1.0 / freq_hz;
        }
        let end_s = case.duration_s as f64;
        if resilient {
            let tail = fault.last_fault_end_s().max(end_s);
            let mut t_idle = end_s;
            while t_idle <= tail + 10.0 {
                shipper.idle_tick(t_idle);
                t_idle += 0.5;
            }
        }
        shipper.seal_pending_traces(end_s);

        let stats = tracer.stats();
        prop_assert_eq!(stats.started, offered_reports);
        prop_assert_eq!(
            stats.started, stats.finished,
            "started != finished: some trace never terminated"
        );
        prop_assert_eq!(tracer.active_count(), 0, "open traces after seal");
        let trees = tracer.flight_recorder();
        prop_assert_eq!(trees.len() as u64, offered_reports);
        const TERMINAL: [&str; 6] =
            ["inserted", "zeroed", "lost", "evicted", "recovered", "spill_pending"];
        for tree in &trees {
            prop_assert!(
                TERMINAL.contains(&tree.terminal_status()),
                "trace {} ended in unexpected status {:?}\n{}",
                tree.id, tree.terminal_status(), tree.render()
            );
            prop_assert!(
                !tree.has_unclosed_spans(),
                "orphaned span in trace {}\n{}",
                tree.id, tree.render()
            );
        }
        // Trace-side conservation mirrors the value-side identity: the
        // sum of traced terminal values matches the transport ledger.
        let st = shipper.stats();
        prop_assert!(st.conserved());
    }
}

/// The two ways a run can be traced: no tracer, and every trace
/// recorded.
fn trace_modes(seed: u64) -> [Option<Arc<Tracer>>; 2] {
    [None, Some(Arc::new(Tracer::new(seed, 64)))]
}

type Cells = Vec<(String, i64, String, u64)>;

/// Every stored cell in `for_each_cell` order, floats by bit pattern.
fn cells(db: &Database) -> Cells {
    let mut out = Vec::new();
    db.for_each_cell(&mut |key, ts, field, value| {
        let FieldValue::Float(x) = value else {
            panic!("the chaos reports carry floats only, got {value:?}");
        };
        out.push((key.canonical(), ts, field.to_string(), x.to_bits()));
    });
    out
}

/// The resilient single-node run of `case` under `tracer`, observed
/// through `registry`.
fn traced_shipper_run(
    case: &Case,
    tracer: Option<Arc<Tracer>>,
    registry: Arc<Registry>,
) -> (ShipperStats, Vec<ShipOutcome>, Cells) {
    let freq_hz = case.freq as f64;
    let fault = FaultSchedule::random(case.seed, case.duration_s as f64);
    if let Some(tracer) = &tracer {
        registry.set_tracer(tracer.clone());
    }
    let db = Database::new("host");
    let mut shipper = Shipper::new(
        &db,
        LinkSpec::mbit_100(),
        1.0 / freq_hz,
        &["chaos", &format!("{:x}", case.seed)],
    )
    .with_obs(registry)
    .with_fault_schedule(fault.clone())
    .with_resilience();
    let mut outcomes = Vec::new();
    let mut value_seed = case.seed;
    let mut t = 0.0;
    for _ in 0..case.freq * case.duration_s {
        for m in 0..case.n_metrics {
            let point = report((t * 1e9) as i64 + m as i64, m, case.domain, &mut value_seed);
            let span = Span::root(tracer.as_ref(), "pcp.sample", (t * 1e9) as u64);
            outcomes.push(shipper.ship_span(t, point, freq_hz, span));
        }
        t += 1.0 / freq_hz;
    }
    let end_s = case.duration_s as f64;
    let mut t_idle = end_s;
    while t_idle <= fault.last_fault_end_s().max(end_s) + 10.0 {
        shipper.idle_tick(t_idle);
        t_idle += 0.5;
    }
    shipper.seal_pending_traces(t_idle);
    (shipper.stats(), outcomes, cells(&db))
}

/// The RF=3 quorum run of `case` under `tracer`, one random fault
/// schedule per replica and a heartbeat (hint replay) every tick.
fn traced_repl_run(
    case: &Case,
    hint_capacity: u64,
    tracer: Option<Arc<Tracer>>,
) -> (ReplStats, Vec<ReplShipOutcome>, Vec<Cells>) {
    let freq_hz = case.freq as f64;
    let cfg = ReplConfig {
        hint_capacity_values: hint_capacity,
        ..ReplConfig::default()
    };
    let set = ReplicaSet::in_memory("chaos", cfg).unwrap();
    let schedules = (0..set.len() as u64)
        .map(|i| FaultSchedule::random(case.seed ^ (i + 1), case.duration_s as f64))
        .collect();
    let registry = Registry::shared();
    if let Some(tracer) = &tracer {
        registry.set_tracer(tracer.clone());
    }
    let mut coord = ReplShipper::new(&set, schedules, &["chaos", &format!("{:x}", case.seed)])
        .unwrap()
        .with_obs(registry);
    let mut outcomes = Vec::new();
    let mut value_seed = case.seed;
    let mut t = 0.0;
    for _ in 0..case.freq * case.duration_s {
        coord.heartbeat(t);
        for m in 0..case.n_metrics {
            let point = report((t * 1e9) as i64 + m as i64, m, case.domain, &mut value_seed);
            let span = Span::root(tracer.as_ref(), "pcp.sample", (t * 1e9) as u64);
            outcomes.push(coord.ship_span(t, point, freq_hz, span));
        }
        t += 1.0 / freq_hz;
    }
    coord.heartbeat(t + 10.0);
    coord.seal_pending_traces(t + 10.0);
    let stored = set.replicas().iter().map(cells).collect();
    (coord.stats(), outcomes, stored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(trace_cases()))]

    /// Tracing is observationally invisible: whether no tracer is
    /// attached or every trace is recorded, the resilient shipper and the
    /// quorum coordinator keep the same ledger, return the same outcome
    /// for every report, and store the same cells bit for bit.
    #[test]
    fn tracing_is_observationally_invisible(
        seed in any::<u64>(),
        freq in 1u32..=16,
        domain in 1usize..=32,
        n_metrics in 1usize..=4,
        duration_s in 2u32..=5,
        hint_capacity in 32u64..=2048,
    ) {
        let case = Case { seed, freq, domain, n_metrics, duration_s };
        let [untraced, recording] = trace_modes(seed);
        let plain = traced_shipper_run(&case, untraced.clone(), Registry::shared());
        // No registry at all: same ledger, same outcomes, same cells.
        let bare = traced_shipper_run(&case, None, Registry::disabled());
        prop_assert_eq!(&plain, &bare, "shipper diverged with no registry");
        let plain_repl = traced_repl_run(&case, hint_capacity, untraced);
        prop_assert!(plain.0.conserved() && plain_repl.0.conserved());
        let run = traced_shipper_run(&case, recording.clone(), Registry::shared());
        prop_assert_eq!(&plain, &run, "shipper diverged when recording");
        let run = traced_repl_run(&case, hint_capacity, recording.clone());
        prop_assert_eq!(&plain_repl, &run, "coordinator diverged when recording");
        // Both runs terminated every trace they started.
        let tracer = recording.expect("the recording mode carries a tracer");
        prop_assert_eq!(tracer.stats().started, tracer.stats().finished);
        prop_assert_eq!(tracer.active_count(), 0);
    }
}

/// A traced report through `Shipper::ship_span` into a durable database:
/// the engine lays its modeled spans out per point — `tsdb.ingest` under
/// the ship attempt, around the WAL group commit and then the point's
/// `tsdb.shard_ingest`, whose status names the series' Merkle shard.
#[test]
fn traced_single_write_lays_out_the_ingest_spans_per_point() {
    use pmove_tsdb::store::{MemDisk, StoreOptions};
    let [_, recording] = trace_modes(7);
    let tracer = recording.expect("the second mode records every trace");
    let registry = Registry::shared();
    registry.set_tracer(tracer.clone());
    let disk = Arc::new(MemDisk::new(7));
    let (db, _) = Database::open("host", disk, StoreOptions::default()).unwrap();
    let mut shipper =
        Shipper::new(&db, LinkSpec::mbit_100(), 1.0, &["chaos", "span"]).with_obs(registry);
    let mut value_seed = 7;
    for t_ns in [1_000_000_000u64, 2_000_000_000] {
        let point = report(t_ns as i64, 0, 4, &mut value_seed);
        let span = Span::root(Some(&tracer), "pcp.sample", t_ns);
        let outcome = shipper.ship_span(t_ns as f64 / 1e9, point, 1.0, span);
        assert_eq!(outcome, ShipOutcome::Inserted);
        let tree = tracer.last_finished().expect("the trace just finished");
        let rendered = tree.render();
        let (_, spans) = rendered.split_once('\n').expect("a header line");
        // Relative to the root's start, as the parent commit laid them out.
        let want = "  - pcp.sample [0..6536696] 6536696ns status=inserted\n\
            \x20   - pcp.fetch [0..8000] 8000ns\n\
            \x20   - pcp.ship_attempt [8000..6536696] 6528696ns\n\
            \x20     - tsdb.ingest [20480..6536696] 6516216ns\n\
            \x20       - store.wal.group_commit [20480..6530896] 6510416ns\n\
            \x20       - tsdb.shard_ingest [6530896..6536696] 5800ns status=shard-12\n";
        assert_eq!(spans, want);
    }
}
