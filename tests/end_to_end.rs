//! End-to-end integration: the full daemon lifecycle across crates —
//! probe → KB → docdb, Scenario A monitoring into the tsdb, Scenario B
//! kernel profiling, recall through auto-generated queries, dashboard
//! generation and rendering, benchmark interfaces.

use pmove::core::dashboard::{gen, render};
use pmove::core::kb::store;
use pmove::core::profiles::stream_kernel_profile;
use pmove::core::telemetry::pinning::PinningStrategy;
use pmove::core::telemetry::scenario_b::{recall_generic_total, ProfileRequest};
use pmove::core::PMoveDaemon;
use pmove::hwsim::vendor::IsaExt;
use pmove::kernels::StreamKernel;
use serde_json::json;

fn daemon() -> PMoveDaemon {
    PMoveDaemon::for_preset("icl").expect("icl preset")
}

#[test]
fn steps_0_to_3_produce_queryable_kb() {
    let d = daemon();
    // The KB is in memory and in the doc DB.
    assert!(d.kb.len() > 40);
    let col = d.doc.collection(store::KB_COLLECTION);
    assert_eq!(col.all().len(), d.kb.len());
    // Mongo-style query over KB documents works.
    let interfaces = col
        .find(&json!({"@type": "Interface", "componentType": "thread"}))
        .unwrap();
    assert_eq!(interfaces.len(), 16);
}

#[test]
fn scenario_a_feeds_dashboards() {
    let mut d = daemon();
    d.monitor(20.0, 2.0);
    let dash = gen::level_dashboard(&d.kb, "thread").expect("dashboard");
    let text = render::render_dashboard(&d.ts, &dash, None);
    // The per-cpu idle panel rendered real sparkline data.
    assert!(text.contains("kernel_percpu_cpu_idle"));
    assert!(text.contains("n=40"), "expected 40 samples:\n{text}");
}

#[test]
fn scenario_b_roundtrip_through_queries() {
    let mut d = daemon();
    let threads = d.machine.spec.total_cores();
    let n: u64 = 1 << 32;
    let request = ProfileRequest {
        profile: stream_kernel_profile(StreamKernel::Daxpy, n, threads, IsaExt::Scalar),
        command: "daxpy -n 4294967296".into(),
        generic_events: vec![
            "SCALAR_DP_FLOPS".into(),
            "TOTAL_MEMORY_OPERATIONS".into(),
            "RAPL_ENERGY_PKG".into(),
        ],
        // 4 Hz: below the stale-read threshold, so recalled totals only
        // carry counter noise (no batched zeros).
        freq_hz: 4.0,
        pinning: PinningStrategy::Compact,
    };
    let outcome = d.profile(&request).expect("profiling succeeds");
    let obs = &outcome.observation;

    // Every auto-generated query parses and returns data.
    for q in obs.queries() {
        let r = d.ts.query(&q).expect("query runs");
        assert!(!r.rows.is_empty(), "no rows for {q}");
    }

    // The recalled FLOP total matches the analytic ground truth within
    // sampling noise (daxpy: 2 flops per element).
    let truth = 2.0 * n as f64;
    let recalled =
        recall_generic_total(&d.ts, &d.layer, "icl", "SCALAR_DP_FLOPS", &obs.id).unwrap();
    assert!(
        (recalled - truth).abs() / truth < 0.08,
        "recalled {recalled:.3e} truth {truth:.3e}"
    );

    // The observation is persisted in the doc DB with its metadata.
    let doc = d
        .doc
        .collection(store::OBS_COLLECTION)
        .find_one(&json!({"observation": obs.id}))
        .unwrap()
        .expect("persisted");
    assert_eq!(doc["pinning"], json!("compact"));
    assert_eq!(doc["command"], json!("daxpy -n 4294967296"));
}

#[test]
fn focus_and_subtree_dashboards_scope_fields_correctly() {
    let mut d = daemon();
    d.monitor(10.0, 1.0);
    let cpu2 = d.kb.by_name("cpu2").unwrap().id.clone();
    let focus = gen::focus_dashboard(&d.kb, &cpu2, false).unwrap();
    assert!(focus
        .panels
        .iter()
        .all(|p| p.targets.iter().all(|t| t.params == "_cpu2")));

    let core0 = d.kb.by_name("core0").unwrap().id.clone();
    let sub = gen::subtree_dashboard(&d.kb, &core0).unwrap();
    // A core's subtree holds exactly its two SMT threads.
    let idle = sub
        .panels
        .iter()
        .find(|p| p.title == "kernel_percpu_cpu_idle")
        .unwrap();
    assert_eq!(idle.targets.len(), 2);
}

#[test]
fn benchmarks_recorded_and_reloadable() {
    let mut d = daemon();
    d.run_stream_benchmark(1 << 22).unwrap();
    d.run_hpcg_benchmark(6, 6, 6).unwrap();
    let col = d.doc.collection(store::BENCH_COLLECTION);
    assert_eq!(col.all().len(), 2);
    let stream = col
        .find_one(&json!({"benchmark": "stream"}))
        .unwrap()
        .expect("stream benchmark stored");
    assert!(stream["results"].as_array().unwrap().len() >= 4);
}

#[test]
fn anomaly_scan_over_monitored_data() {
    let mut d = daemon();
    d.monitor(30.0, 2.0);
    // The ambient system state is roughly uniform across threads: the
    // scan should not fire at a high threshold.
    let found = pmove::core::analysis::anomaly_scan(&d.ts, "kernel_percpu_cpu_idle", None, 3.5);
    assert!(found.len() <= 1, "unexpected anomalies: {found:?}");
}

#[test]
fn kb_reload_matches_live_kb() {
    let d = daemon();
    let loaded = store::load_interfaces(&d.doc, "icl").unwrap();
    assert_eq!(loaded.len(), d.kb.len());
    for (a, b) in loaded.iter().zip(&d.kb.interfaces) {
        assert_eq!(a, b);
    }
}
