//! Pin the self-observability dashboard of one busy daemon — durable,
//! scrubbing, rolling up, traced, through a link outage on the resilient
//! transport, serving queries — to its captured JSON: panel titles, panel
//! order and every target.

use pmove_core::PMoveDaemon;
use pmove_hwsim::{FaultKind, FaultSchedule};
use pmove_serve::{Priority, ServeRequest, ServingConfig};
use pmove_tsdb::store::MemDisk;
use pmove_tsdb::RollupConfig;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/self_dashboard.json");

#[test]
fn self_dashboard_of_a_busy_daemon_matches_golden() {
    let mut d = PMoveDaemon::for_preset_durable("icl", Arc::new(MemDisk::new(11))).unwrap();
    assert!(d.enable_scrubbing(4.0));
    d.enable_rollups(RollupConfig::default());
    d.enable_tracing(256);
    d.install_default_slos();
    d.monitor(10.0, 1.0);
    d.ts.flush().unwrap();
    let outage = FaultSchedule::none().with_window(5.0, 15.0, FaultKind::LinkDown);
    d.monitor_resilient(30.0, 1.0, true, Some(outage));
    let panel = "SELECT mean(\"value\") FROM \"kernel_all_load\"";
    let schedule: Vec<ServeRequest> = (0..8u64)
        .map(|i| ServeRequest {
            tenant: (i % 4) as u32,
            priority: Priority::Interactive,
            query: panel.to_string(),
            at_ns: i * 1_000,
        })
        .collect();
    d.serve_queries(ServingConfig::default(), &schedule)
        .unwrap();
    d.evaluate_slos();

    let dash = d.self_dashboard();
    let titles: Vec<&str> = dash.panels.iter().map(|p| p.title.as_str()).collect();
    for title in [
        "storage engine",
        "query engine",
        "transport resilience",
        "integrity",
        "batch & rollup",
        "tracing & SLO",
        "query serving",
    ] {
        assert!(titles.contains(&title), "no {title} panel in {titles:?}");
    }
    let rendered = serde_json::to_string_pretty(&dash.to_json()).unwrap();
    assert_eq!(
        rendered.trim_end(),
        GOLDEN.trim_end(),
        "self dashboard drifted from crates/core/tests/golden/self_dashboard.json"
    );
}
