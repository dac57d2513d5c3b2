//! Live-CARM demo (the Fig. 9 workflow): construct the Cache-Aware
//! Roofline Model for a target via auto-configured microbenchmarks, run
//! likwid-style kernels under PMU sampling, and render the live-CARM panel.
//!
//! ```sh
//! cargo run --example live_carm
//! ```

use pmove::core::carm::microbench::{
    carm_from_kb, construct_carm_sweep, representative_thread_counts,
};
use pmove::core::carm::{plot, LiveCarm};
use pmove::core::profiles::stream_kernel_profile_at_level;
use pmove::core::telemetry::pinning::PinningStrategy;
use pmove::core::telemetry::scenario_b::ProfileRequest;
use pmove::core::PMoveDaemon;
use pmove::kernels::StreamKernel;

fn main() {
    let mut daemon = PMoveDaemon::for_preset("csl").expect("preset machine");
    let threads = daemon.machine.spec.total_cores();

    println!(
        "representative thread counts: {:?}",
        representative_thread_counts(&daemon.machine)
    );

    // Construct the CARM at every representative thread count and cache
    // them in the KB, so the plot is re-constructed from the KB without
    // re-running the microbenchmarks.
    construct_carm_sweep(&daemon.machine, &mut daemon.kb, &mut daemon.ids);
    daemon.sync_kb().expect("KB sync");
    let carm = carm_from_kb(&daemon.kb, threads).expect("CARM cached in the KB");
    println!("CARM re-constructed from the KB:");
    for r in &carm.roofs {
        println!("  {:<5} {:8.1} GB/s", r.level, r.bandwidth_bps / 1e9);
    }
    for p in &carm.peaks {
        println!("  peak {:<7} {:8.1} GF/s", p.isa, p.gflops);
    }

    // Profile the three Fig. 9 benchmarks and collect live trajectories.
    let layer = daemon.layer.clone();
    let live = LiveCarm::new(&layer, "csl");
    let isa = daemon.machine.spec.arch.widest_isa();
    let mut all_points = Vec::new();
    for (kernel, level) in [
        (StreamKernel::Triad, 2u8),
        (StreamKernel::Peakflops, 1),
        (StreamKernel::Ddot, 1),
    ] {
        let request = ProfileRequest {
            profile: stream_kernel_profile_at_level(kernel, 1 << 38, threads, isa, level),
            command: format!("likwid-bench -t {}", kernel.name()),
            generic_events: vec!["TOTAL_DP_FLOPS".into(), "TOTAL_MEMORY_OPERATIONS".into()],
            freq_hz: 8.0,
            pinning: PinningStrategy::Compact,
        };
        let outcome = daemon.profile(&request).expect("profiling succeeds");
        let points = live
            .trajectory(&daemon.ts, &outcome.observation.id, 0.25)
            .expect("trajectory");
        println!(
            "\n{}: {} live points, theoretical AI {:.4}",
            kernel.name(),
            points.len(),
            kernel.op_counts(1 << 38).arithmetic_intensity()
        );
        all_points.extend(points);
    }

    println!("\n{}", plot::render(&carm, &all_points, 76, 22));
}
