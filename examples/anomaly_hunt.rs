//! Fleet-level anomaly hunting: three P-MoVE daemons feed one SUPERDB,
//! a rogue pinned workload runs on one node, the level-view scan detects
//! the anomalous thread and the KB focus path walks it to the root — the
//! root-cause workflow §III-B describes.
//!
//! ```sh
//! cargo run --example anomaly_hunt
//! ```

use pmove::core::analysis::{anomaly_scan, trace};
use pmove::core::kb::superdb::SuperDb;
use pmove::core::profiles::stream_kernel_profile;
use pmove::core::telemetry::pinning::PinningStrategy;
use pmove::core::telemetry::scenario_b::ProfileRequest;
use pmove::core::PMoveDaemon;
use pmove::hwsim::vendor::IsaExt;
use pmove::kernels::StreamKernel;
use pmove::tsdb::Query;

fn main() {
    // One daemon per node, each uploading its KB to the global database.
    let superdb = SuperDb::new();
    let mut nodes: Vec<PMoveDaemon> = ["icl", "csl", "zen3"]
        .into_iter()
        .map(|key| PMoveDaemon::for_preset(key).expect("preset machine"))
        .collect();
    for daemon in &nodes {
        superdb.upload_kb(&daemon.kb).expect("KB upload");
    }
    let twins: usize = nodes.iter().map(|d| d.kb.len()).sum();
    println!(
        "{} daemons up, {twins} component twins in SUPERDB ({:?})",
        nodes.len(),
        superdb.machines()
    );

    // A rogue long-running hog pins itself to csl's cpu0: Scenario B
    // profiles its first burst, then the process keeps running in the
    // background while Scenario A monitors every node.
    let csl = &mut nodes[1];
    let request = ProfileRequest {
        profile: stream_kernel_profile(StreamKernel::Peakflops, 1 << 36, 1, IsaExt::Scalar),
        command: "rogue_hog".into(),
        generic_events: vec!["CPU_CYCLES".into()],
        freq_hz: 2.0,
        pinning: PinningStrategy::Compact,
    };
    let outcome = csl.profile(&request).expect("hog profiled");
    println!(
        "profiled rogue workload on csl cpu0 ({:.1} s burst)",
        outcome.execution.duration_s
    );
    csl.set_background_load(&[(0, 0.98)]); // the hog keeps running

    // Scenario A on every node, then the mean load per hardware thread.
    let load = Query::parse("SELECT mean(\"value\") FROM \"kernel_all_load\"").expect("valid");
    for daemon in &mut nodes {
        daemon.monitor(30.0, 2.0, None);
        let frame = daemon.ts.query_frame(&load).expect("load recorded");
        let mean = frame.cols[0].first().copied().flatten().unwrap_or(0.0);
        let threads = daemon.machine.spec.total_threads() as f64;
        println!(
            "  {:<5} mean load {mean:.2} ({:.3} per thread)",
            daemon.kb.machine_key,
            mean / threads
        );
    }

    // Per-node anomaly scan over the thread level view.
    for daemon in &nodes {
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

    // Per-node retention keeps each daemon's storage bounded.
    let (keep_ns, mut removed) = (15_000_000_000, 0);
    for daemon in &nodes {
        daemon.ts.set_retention(keep_ns).expect("a positive keep");
        let now_ns = (daemon.now_s * 1e9) as i64;
        removed += daemon.ts.enforce_retention(now_ns).expect("retention");
    }
    println!("retention removed {removed} old rows across the nodes");
}
