//! Self-monitoring: P-MoVE watching its own pipeline.
//!
//! Runs Scenario A and a Scenario B kernel profile, then prints the
//! framework's own health: the loss-conservation accounting, latency
//! quantiles from the tsdb ingest path, per-boot-step span timings, the
//! generated self-dashboard, and the `pmove.self.*` series the
//! meta-exporter writes back into the time-series database.
//!
//! ```sh
//! cargo run --example self_monitoring
//! ```

use pmove::core::telemetry::pinning::PinningStrategy;
use pmove::core::telemetry::scenario_b::ProfileRequest;
use pmove::core::{profiles, PMoveDaemon};
use pmove::hwsim::vendor::IsaExt;
use pmove::kernels::StreamKernel;

fn main() {
    let mut daemon = PMoveDaemon::for_preset("csl").expect("preset machine");

    // Scenario A window, then a Scenario B profile (the paper's Fig. 4
    // flow) — both feed the daemon's own observability registry.
    daemon.monitor(30.0, 2.0, None);
    let request = ProfileRequest {
        profile: profiles::stream_kernel_profile(StreamKernel::Triad, 1 << 32, 28, IsaExt::Avx512),
        command: "stream_triad".into(),
        generic_events: vec!["TOTAL_DP_FLOPS".into()],
        freq_hz: 8.0,
        pinning: PinningStrategy::Balanced,
    };
    daemon.profile(&request).expect("scenario B profile");

    // --- pipeline health: the conservation identity -------------------
    let snap = daemon.obs.snapshot();
    let offered = snap
        .counter("pcp.transport.values_offered", &[])
        .unwrap_or(0);
    let inserted = snap
        .counter("pcp.transport.values_inserted", &[])
        .unwrap_or(0);
    let zeroed = snap
        .counter("pcp.transport.values_zeroed", &[])
        .unwrap_or(0);
    let lost = snap.counter("pcp.transport.values_lost", &[]).unwrap_or(0);
    println!("pipeline health ({}):", daemon.kb.machine_key);
    println!("  values offered   {offered}");
    println!("  values inserted  {inserted}");
    println!("  values zeroed    {zeroed}");
    println!("  values lost      {lost}");
    let conserved = offered == inserted + zeroed + lost;
    println!(
        "  conservation     {} (offered == inserted + zeroed + lost)",
        if conserved { "holds" } else { "VIOLATED" }
    );
    assert!(conserved, "loss-conservation identity violated");

    if let Some(h) = snap.histogram("tsdb.ingest_ns", &[]) {
        println!(
            "  ingest latency   p50 {:.0} ns / p90 {:.0} ns / p99 {:.0} ns over {} writes",
            h.p50, h.p90, h.p99, h.count
        );
    }

    println!("\nboot-step spans (virtual ns):");
    for (name, span) in &snap.spans {
        if name.starts_with("daemon.step") {
            println!(
                "  {name:<28} {:>12} .. {:>12}  ({} ns)",
                span.last_start_ns,
                span.last_end_ns,
                span.last_end_ns - span.last_start_ns
            );
        }
    }

    // --- meta-telemetry export + self-dashboard -----------------------
    let points = daemon.export_self_telemetry();
    let self_series = daemon
        .ts
        .measurements()
        .into_iter()
        .filter(|m| m.starts_with("pmove.self."))
        .count();
    println!("\nexported {points} self-telemetry points into {self_series} pmove.self.* series");

    let dash = daemon.self_dashboard();
    println!(
        "self-dashboard '{}' with {} panels, {} targets; loss panel JSON:",
        dash.title,
        dash.panels.len(),
        dash.target_count()
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&dash.to_json()["panels"][0]).unwrap()
    );
}
