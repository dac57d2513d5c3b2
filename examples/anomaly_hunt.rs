//! Fleet-level anomaly hunting: monitor a small cluster, inject a rogue
//! pinned workload on one node, detect the anomalous thread with the
//! level-view scan, and walk the KB focus path to the root — the
//! root-cause workflow §III-B describes.
//!
//! ```sh
//! cargo run --example anomaly_hunt
//! ```

use pmove::core::analysis::{anomaly_scan, trace};
use pmove::core::profiles::stream_kernel_profile;
use pmove::core::telemetry::cluster::Cluster;
use pmove::core::telemetry::pinning::PinningStrategy;
use pmove::core::telemetry::scenario_b::ProfileRequest;
use pmove::hwsim::vendor::IsaExt;
use pmove::kernels::StreamKernel;

fn main() {
    let mut cluster = Cluster::from_presets(&["icl", "csl", "zen3"]).expect("cluster up");
    println!(
        "cluster up: {} nodes, {} component twins in SUPERDB",
        cluster.nodes.len(),
        cluster.fleet_twin_count()
    );

    // A rogue long-running hog pins itself to csl's cpu0: Scenario B
    // profiles its first burst, then the process keeps running in the
    // background while Scenario A monitors the fleet.
    {
        let node = cluster.node_mut("csl").expect("csl node");
        let request = ProfileRequest {
            profile: stream_kernel_profile(StreamKernel::Peakflops, 1 << 36, 1, IsaExt::Scalar),
            command: "rogue_hog".into(),
            generic_events: vec!["CPU_CYCLES".into()],
            freq_hz: 2.0,
            pinning: PinningStrategy::Compact,
        };
        let outcome = node.profile(&request).expect("hog profiled");
        println!(
            "profiled rogue workload on csl cpu0 ({:.1} s burst)",
            outcome.execution.duration_s
        );
        node.set_background_load(&[(0, 0.98)]); // the hog keeps running
    }

    // Fleet-wide Scenario A sweep.
    cluster.monitor_all(30.0, 2.0);
    for (node, load) in cluster.load_summary() {
        println!("  {node:<5} mean load {load:.2}");
    }
    if let Some((node, norm)) = cluster.hottest_node() {
        println!("hottest node by normalized load: {node} ({norm:.3} per thread)");
    }

    // Per-node anomaly scan over the thread level view.
    for daemon in &cluster.nodes {
        let found = anomaly_scan(&daemon.ts, "kernel_percpu_cpu_idle", None, 2.5);
        if found.is_empty() {
            println!("{}: no thread-level anomalies", daemon.kb.machine_key);
            continue;
        }
        for anomaly in &found {
            println!(
                "{}: anomaly on {} (z = {:.1}, idle {:.3} vs level mean {:.3})",
                daemon.kb.machine_key,
                anomaly.field,
                anomaly.z_score,
                anomaly.value,
                anomaly.level_mean
            );
            let steps = trace::trace_anomaly(&daemon.kb, &daemon.ts, anomaly);
            print!("{}", trace::format_trace(&steps));
        }
    }

    // Retention keeps the fleet's storage bounded.
    let removed = cluster
        .enforce_retention(15_000_000_000)
        .expect("a positive keep duration");
    println!(
        "retention removed {} old rows across the fleet",
        removed.iter().map(|(_, n)| n).sum::<usize>()
    );
}
