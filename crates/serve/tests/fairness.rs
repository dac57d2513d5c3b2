//! Serving-layer property tests: under *arbitrary* tenant arrival
//! schedules, no admitted query is ever lost — every submitted request is
//! accounted exactly once (`submitted == rejected + admitted` and
//! `admitted == served + shed`) — and every shed decision hits the
//! lowest-priority request present at that moment. A third property pins
//! bit-identical replay: the same schedule against the same data produces
//! the same report, byte for byte.
//!
//! Case count defaults to 192 and is raised in CI's serving job via the
//! `PMOVE_SERVE_CASES` environment variable.

use pmove_serve::{Priority, QueryServer, ServeRequest, ServingConfig};
use pmove_tsdb::{Database, Point};
use proptest::prelude::*;
use proptest::StrategyExt;

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
