//! Cluster failover, end to end: a node dies mid-run, the supervisor
//! quarantines it after three missed heartbeats, the
//! survivors keep inserting telemetry, and SUPERDB-level views exclude
//! the dead node while carrying an explicit staleness annotation.

use pmove_core::telemetry::Cluster;

#[test]
fn node_death_mid_run_quarantines_without_stopping_the_fleet() {
    let mut cluster = Cluster::from_presets(&["icl", "csl", "zen3"]).unwrap();

    // Healthy warm-up round: every node reports and fills its store.
    let reports = cluster.monitor_all(10.0, 1.0);
    assert_eq!(reports.len(), 3);
    let rows_before: Vec<usize> = cluster.nodes.iter().map(|d| d.ts.total_rows()).collect();
    assert!(rows_before.iter().all(|&r| r > 0));
    // Global views see all three machines before the failure.
    assert_eq!(
        cluster.superdb.global_level_view("socket").unwrap().len(),
        3
    );

    // csl dies mid-run.
    assert!(cluster.kill_node("csl"));

    // Rounds 1 and 2 after death: misses counted, not yet quarantined,
    // survivors run.
    for round in 1..=2u32 {
        let reports = cluster.monitor_all(10.0, 1.0);
        let keys: Vec<&str> = reports.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["icl", "zen3"]);
        let csl = cluster
            .node_health()
            .into_iter()
            .find(|h| h.key == "csl")
            .unwrap();
        assert!(!csl.alive);
        assert!(!csl.quarantined);
        assert_eq!(csl.missed_heartbeats, round);
    }

    // Round 3: the miss limit is reached — quarantine.
    cluster.monitor_all(10.0, 1.0);
    let csl = cluster
        .node_health()
        .into_iter()
        .find(|h| h.key == "csl")
        .unwrap();
    assert!(csl.quarantined);
    assert_eq!(cluster.quarantined_nodes(), vec!["csl".to_string()]);

    // Survivors kept inserting across every round...
    for (i, d) in cluster.nodes.iter().enumerate() {
        if d.kb.machine_key == "csl" {
            assert_eq!(d.ts.total_rows(), rows_before[i], "dead node stopped");
        } else {
            assert!(d.ts.total_rows() > rows_before[i], "survivor kept going");
        }
    }
    // ...and their transports stayed lossless.
    let snap = cluster.obs.snapshot();
    assert_eq!(
        snap.counter("cluster.nodes_quarantined", &[("node", "csl")]),
        Some(1)
    );

    // SUPERDB: the level view excludes the dead node; the staleness
    // annotation explains why and points at its last healthy moment.
    let sockets = cluster.superdb.global_level_view("socket").unwrap();
    let machines: Vec<&str> = sockets.iter().map(|(m, _)| m.as_str()).collect();
    assert_eq!(machines, vec!["icl", "zen3"]);
    assert_eq!(cluster.superdb.staleness("csl"), Some(10.0));
    assert_eq!(cluster.superdb.stale_machines(), vec!["csl".to_string()]);
    // The dashboard built on the view drops the dead node's panels too.
    let dash = cluster
        .superdb
        .global_level_dashboard("socket")
        .unwrap()
        .expect("two live machines remain");
    assert!(!dash.panels.iter().any(|p| p.title.starts_with("csl: ")));

    // Operator revives the node: quarantine and staleness clear, and the
    // next round monitors all three again.
    assert!(cluster.revive_node("csl").unwrap());
    assert!(cluster.superdb.staleness("csl").is_none());
    let reports = cluster.monitor_all(10.0, 1.0);
    assert_eq!(reports.len(), 3);
    assert_eq!(
        cluster.superdb.global_level_view("socket").unwrap().len(),
        3
    );
}
