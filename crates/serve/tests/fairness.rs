//! Serving-layer property tests: under *arbitrary* tenant arrival
//! schedules, no admitted query is ever lost — every submitted request is
//! accounted exactly once (`submitted == rejected + admitted` and
//! `admitted == served + shed`) — and every shed decision hits the
//! lowest-priority request present at that moment. A third property pins
//! bit-identical replay: the same schedule against the same data produces
//! the same report, byte for byte. Two fixed open-loop Poisson runs pin
//! what the layer is for: shared panels coalesce inside the latency SLO,
//! and an overload sheds background work while interactive stays inside.
//!
//! Case count defaults to 192 and is raised in CI's serving job via the
//! `PMOVE_SERVE_CASES` environment variable.

use pmove_obs::{AlertState, Registry, SloEngine, SloSpec};
use pmove_serve::{Priority, QueryServer, ServeReport, ServeRequest, ServingConfig, SLO_P99_NS};
use pmove_tsdb::{Database, Point};
use proptest::prelude::*;
use proptest::StrategyExt;
use std::sync::Arc;

fn serve_cases() -> u32 {
    std::env::var("PMOVE_SERVE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(192)
}

/// A small database the schedules query; panel index selects the window.
fn db() -> Database {
    let db = Database::new("serve-prop");
    for s in 0..30i64 {
        for host in ["a", "b", "c"] {
            let p = Point::new("cpu")
                .timestamp(s * 1_000_000_000)
                .tag("host", host)
                .field("busy", (s % 7) as f64);
            db.write_point(p).unwrap();
        }
    }
    db
}

/// One arrival in a generated schedule, in schedule-local units.
#[derive(Debug, Clone)]
struct Arrival {
    tenant: u32,
    interactive: bool,
    panel: u8,
    gap_us: u16,
}

fn arrival() -> impl Strategy<Value = Arrival> {
    (0u32..6, any::<bool>(), 0u8..5, 0u16..800).prop_map(|(tenant, interactive, panel, gap_us)| {
        Arrival {
            tenant,
            interactive,
            panel,
            gap_us,
        }
    })
}

/// Tight limits so arbitrary schedules actually exercise shedding, rate
/// deferral, and tenant caps — not just the happy path.
fn config() -> impl Strategy<Value = ServingConfig> {
    (
        (2usize..10, 1usize..4, 1u64..200), // queue, concurrency, rate
        (1u64..6, 1usize..8),               // burst, cap
    )
        .prop_map(
            |((queue_capacity, max_concurrency, rate), (burst, cap))| ServingConfig {
                queue_capacity,
                max_concurrency,
                tenant_rate_per_s: rate,
                tenant_burst: burst,
                tenant_cap: cap,
            },
        )
}

fn schedule_of(arrivals: &[Arrival]) -> Vec<ServeRequest> {
    let mut at_ns = 0u64;
    arrivals
        .iter()
        .map(|a| {
            at_ns += u64::from(a.gap_us) * 1_000;
            ServeRequest {
                tenant: a.tenant,
                priority: if a.interactive {
                    Priority::Interactive
                } else {
                    Priority::Background
                },
                query: format!(
                    "SELECT mean(\"busy\") FROM \"cpu\" WHERE time >= {} GROUP BY time(5000000000)",
                    u64::from(a.panel) * 1_000_000_000
                ),
                at_ns,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: serve_cases() })]

    /// Conservation: nothing is lost and nothing is double-counted, both
    /// globally and per tenant, under any schedule and any configuration.
    #[test]
    fn admitted_requests_are_never_lost(
        arrivals in proptest::collection::vec(arrival(), 1..120),
        cfg in config(),
    ) {
        let db = db();
        let mut srv = QueryServer::new(&db, cfg).unwrap();
        let schedule = schedule_of(&arrivals);
        let report = srv.run(&schedule).unwrap();
        prop_assert_eq!(report.submitted, schedule.len() as u64);
        prop_assert!(report.conserved(), "conservation violated: {:?}", report);
        for (tenant, t) in &report.per_tenant {
            prop_assert_eq!(
                t.submitted, t.rejected + t.admitted,
                "tenant {} admission imbalance", tenant
            );
            prop_assert_eq!(
                t.admitted, t.served + t.shed,
                "tenant {} service imbalance", tenant
            );
        }
        // Coalescing never invents work: executions cover all served.
        prop_assert!(report.executions + report.coalesced <= report.served + report.executions);
        prop_assert_eq!(report.served - report.coalesced, report.executions,
            "every execution serves exactly one non-coalesced request");
    }

    /// Shedding discipline: every victim was the lowest-priority request
    /// present (newcomer included) at the moment of the decision.
    #[test]
    fn shed_requests_are_always_lowest_priority(
        arrivals in proptest::collection::vec(arrival(), 1..120),
        cfg in config(),
    ) {
        let db = db();
        let mut srv = QueryServer::new(&db, cfg).unwrap();
        let report = srv.run(&schedule_of(&arrivals)).unwrap();
        prop_assert!(
            report.shed_only_lowest(),
            "shed over the head of lower-priority work: {:?}",
            report.shed_events
        );
    }

    /// Replay: the same schedule against identically-seeded state yields a
    /// bit-identical report (the bench gate's foundation).
    #[test]
    fn replay_is_bit_identical(
        arrivals in proptest::collection::vec(arrival(), 1..60),
        cfg in config(),
    ) {
        let run = || {
            let db = db();
            let mut srv = QueryServer::new(&db, cfg.clone()).unwrap();
            srv.run(&schedule_of(&arrivals)).unwrap()
        };
        prop_assert_eq!(run(), run());
    }
}

/// Eight dashboard panels (one measurement each): 60 s of per-second
/// points from 4 hosts.
fn panels() -> Database {
    let db = Database::new("serve-load");
    for panel in 0..8i64 {
        for s in 0..60i64 {
            for host in 0..4i64 {
                let p = Point::new(format!("panel{panel}"))
                    .timestamp(s * 1_000_000_000 + host)
                    .tag("host", format!("h{host}"))
                    .field("busy", ((s * 7 + host * 13 + panel * 3) % 100) as f64);
                db.write_point(p).unwrap();
            }
        }
    }
    db
}

/// Seeded open-loop Poisson arrivals over `duration_ns` of virtual time:
/// exponential gaps at `rate_per_s`, tenant uniform over 64, panel
/// uniform over 8, interactive with probability `interactive`;
/// `query(panel, i)` is the text of request `i`. Draws are SplitMix64.
fn poisson(
    mut seed: u64,
    duration_ns: u64,
    rate_per_s: f64,
    interactive: f64,
    query: impl Fn(u64, u64) -> String,
) -> Vec<ServeRequest> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let (mut at_ns, mut out) = (0u64, Vec::new());
    loop {
        at_ns += ((-(1.0 - unit()).ln() * 1e9 / rate_per_s).ceil() as u64).max(1);
        if at_ns >= duration_ns {
            return out;
        }
        let tenant = (unit() * 64.0) as u32;
        let panel = (unit() * 8.0) as u64;
        let priority = if unit() < interactive {
            Priority::Interactive
        } else {
            Priority::Background
        };
        let query = query(panel, out.len() as u64);
        out.push(ServeRequest {
            tenant,
            priority,
            query,
            at_ns,
        });
    }
}

/// Serve `schedule` over [`panels`], then replay the run's latency
/// histogram through the `serving_p99` burn-rate SLO for 10 s of
/// post-run evaluations; true when it ever left `ok`.
fn serve(cfg: ServingConfig, schedule: &[ServeRequest]) -> (ServeReport, bool) {
    let db = panels();
    let reg = Arc::new(Registry::new());
    let mut srv = QueryServer::new(&db, cfg).unwrap().with_obs(reg.clone());
    let report = srv.run(schedule).unwrap();
    let mut slo = SloEngine::new(Registry::disabled());
    slo.add(SloSpec::serving_p99(SLO_P99_NS));
    let snap = reg.snapshot();
    let alerted = (0..6u64).any(|k| {
        slo.evaluate(&snap, report.end_ns + k * 2_000_000_000);
        slo.state("serving_p99") != Some(AlertState::Ok)
    });
    (report, alerted)
}

/// 64 tenants render the same 8 panels at 1M requests/s for 30 ms, far
/// above one backend's scan rate: identical panels coalesce at least
/// 4x and ride the result cache, both classes' p99 stay under the SLO
/// without the burn-rate alert firing, and tenants are served fairly.
#[test]
fn shared_panels_coalesce_inside_the_slo() {
    let schedule = poisson(0x5EE7_1E55, 30_000_000, 1e6, 0.5, |panel, _| {
        format!("SELECT \"busy\" FROM \"panel{panel}\"")
    });
    let cfg = ServingConfig {
        queue_capacity: 1024,
        max_concurrency: 4,
        tenant_rate_per_s: 50_000,
        tenant_burst: 4_000,
        tenant_cap: 256,
    };
    let (r, alerted) = serve(cfg, &schedule);
    assert!(r.conserved(), "{r:?}");
    assert_eq!((r.rejected, r.shed, r.errors), (0, 0, 0));
    assert!(r.coalescing_ratio() >= 4.0, "{:.2}", r.coalescing_ratio());
    assert!(r.cache_hit_rate() > 0.9, "{:.3}", r.cache_hit_rate());
    assert!(r.interactive.p99_ns < SLO_P99_NS, "{:?}", r.interactive);
    assert!(r.background.p99_ns < SLO_P99_NS, "{:?}", r.background);
    assert!(!alerted, "the steady run paged");
    assert!(r.fairness_served() > 0.95, "{:.4}", r.fairness_served());
}

/// A 95%-background flood at 200k requests/s for 20 ms, every request a
/// distinct 10 s window (nothing coalesces or caches), against two slots
/// and a 32-deep queue: admission sheds, only background work is shed,
/// and interactive p99 stays under the SLO.
#[test]
fn overload_sheds_background_and_keeps_interactive_inside_the_slo() {
    let schedule = poisson(
        0x5EE7_1E55 ^ 0xBAD_10AD,
        20_000_000,
        2e5,
        0.05,
        |panel, i| {
            let lo = (i % 50) * 1_000_000_000 + i;
            let hi = lo + 10_000_000_000;
            format!("SELECT \"busy\" FROM \"panel{panel}\" WHERE time >= {lo} AND time < {hi}")
        },
    );
    let cfg = ServingConfig {
        queue_capacity: 32,
        max_concurrency: 2,
        tenant_rate_per_s: 50_000,
        tenant_burst: 4_000,
        tenant_cap: 64,
    };
    let (r, _) = serve(cfg, &schedule);
    assert!(r.conserved(), "{r:?}");
    assert!(r.shed > 0, "the flood never overloaded the queue");
    assert!(r
        .shed_events
        .iter()
        .all(|e| e.priority == Priority::Background));
    assert!(r.interactive.count > 0);
    assert!(r.interactive.p99_ns < SLO_P99_NS, "{:?}", r.interactive);
}
