//! Resilient monitoring: the telemetry pipeline healing itself through
//! injected faults.
//!
//! A link outage and a backend brown-out are injected into a Scenario A
//! run, once with the paper's default unbuffered transport (losses) and
//! once with the resilient mode on (spill, retry, circuit breaker, gap
//! markers). A cluster then loses a node mid-run and quarantines it while
//! the survivors keep reporting.
//!
//! ```sh
//! cargo run --example resilient_monitoring
//! ```

use pmove::core::telemetry::Cluster;
use pmove::core::PMoveDaemon;
use pmove::hwsim::{FaultKind, FaultSchedule};

fn main() {
    // A 15 s link outage and a deep brown-out inside a 60 s window.
    let faults = || {
        FaultSchedule::none()
            .with_window(10.0, 25.0, FaultKind::LinkDown)
            .with_window(35.0, 45.0, FaultKind::BackendBrownout(0.2))
    };

    // Default (paper-mode) transport under the same faults: whatever the
    // outage swallows is gone.
    let mut plain = PMoveDaemon::for_preset("icl").expect("preset machine");
    let report = plain.monitor_resilient(60.0, 2.0, false, Some(faults()));
    println!("== default transport ==");
    println!(
        "offered {} inserted {} lost {}",
        report.transport.values_offered,
        report.transport.values_inserted + report.transport.values_zeroed,
        report.transport.values_lost,
    );

    // Self-healing transport: spill during the outage, drain after it,
    // mark the gap.
    let mut daemon = PMoveDaemon::for_preset("icl").expect("preset machine");
    let report = daemon.monitor_resilient(60.0, 2.0, true, Some(faults()));
    println!("\n== resilient transport ==");
    println!(
        "offered {} inserted {} lost {} recovered {} gap markers {} conserved {}",
        report.transport.values_offered,
        report.transport.values_inserted + report.transport.values_zeroed,
        report.transport.values_lost,
        report.transport.values_recovered,
        report.transport.gap_markers,
        report.transport.conserved(),
    );
    let gaps = daemon
        .ts
        .query(&format!(
            "SELECT \"gap_end_s\" FROM \"{}\"",
            pmove::pcp::GAP_MEASUREMENT
        ))
        .expect("gap markers are queryable");
    println!("gap marker rows in tsdb: {}", gaps.rows.len());

    // The self-dashboard grew a resilience panel.
    let dash = daemon.self_dashboard();
    for p in &dash.panels {
        if p.title == "transport resilience" {
            println!(
                "dashboard panel '{}' with {} targets",
                p.title,
                p.targets.len()
            );
        }
    }

    // Cluster failover: csl dies mid-run, gets quarantined, survivors
    // keep inserting, SUPERDB annotates the staleness.
    println!("\n== cluster failover ==");
    let mut cluster = Cluster::from_presets(&["icl", "csl", "zen3"]).expect("presets");
    cluster.monitor_all(10.0, 1.0);
    cluster.kill_node("csl");
    for _ in 0..3 {
        cluster.monitor_all(10.0, 1.0);
    }
    for h in cluster.node_health() {
        println!(
            "node {:5} alive={} quarantined={} missed={} last_seen={}s",
            h.key, h.alive, h.quarantined, h.missed_heartbeats, h.last_seen_s
        );
    }
    println!(
        "superdb staleness for csl: {:?}; live machines in socket view: {:?}",
        cluster.superdb.staleness("csl"),
        cluster
            .superdb
            .global_level_view("socket")
            .unwrap()
            .iter()
            .map(|(m, _)| m.clone())
            .collect::<Vec<_>>()
    );
}
