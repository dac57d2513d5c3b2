//! Fig. 9: live-CARM during likwid benchmark executions on CSL.
//!
//! * **Triad** (AI = 0.0625 under the CARM byte convention; the paper
//!   prints "0.625", an apparent typo) — memory-bound; its working set
//!   exceeds the 32 KiB L1, so performance approaches but cannot surpass
//!   the L2 roof.
//! * **PeakFlops** (AI = 2) — reaches the top FP roof.
//! * **DDOT** (AI = 0.125) — fits in L1, surpassing the L2 roof and
//!   approaching the architecture's maximum.

use pmove_core::carm::microbench::construct_carm;
use pmove_core::carm::{CarmModel, LiveCarm, LiveCarmPoint};
use pmove_core::profiles::stream_kernel_profile_at_level;
use pmove_core::telemetry::pinning::PinningStrategy;
use pmove_core::telemetry::scenario_b::ProfileRequest;
use pmove_core::PMoveDaemon;
use pmove_kernels::StreamKernel;

/// One benchmark's live-CARM characterization.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BenchPhase {
    /// Kernel name.
    pub(crate) kernel: String,
    /// Theoretical AI (ground truth).
    pub(crate) theoretical_ai: f64,
    /// Mean live AI captured by the panel.
    pub(crate) live_ai: f64,
    /// Mean live GFLOP/s.
    pub(crate) live_gflops: f64,
    /// Trajectory points.
    pub(crate) points: Vec<LiveCarmPoint>,
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// The constructed CARM.
    pub(crate) carm: CarmModel,
    /// One phase per benchmark.
    pub(crate) phases: Vec<BenchPhase>,
}

/// Run the experiment.
pub fn run() -> Fig9Result {
    let mut daemon = PMoveDaemon::for_preset("csl").expect("csl preset");
    let threads = daemon.machine.spec.total_cores();
    let carm = construct_carm(&daemon.machine, threads);
    let layer = daemon.layer.clone();
    let live = LiveCarm::new(&layer, "csl");
    let isa = daemon.machine.spec.arch.widest_isa();

    // (kernel, residency level): Triad works from L2 (beyond L1),
    // PeakFlops and DDOT from L1.
    let cases = [
        (StreamKernel::Triad, 2u8),
        (StreamKernel::Peakflops, 1),
        (StreamKernel::Ddot, 1),
    ];
    // likwid repeats the stream: runs span several seconds, so the
    // live-CARM windows sit in steady state.
    let n: u64 = 1 << 40;
    let mut phases = Vec::new();
    for (kernel, level) in cases {
        let request = ProfileRequest {
            profile: stream_kernel_profile_at_level(kernel, n, threads, isa, level),
            command: format!("likwid-bench -t {}", kernel.name()),
            generic_events: vec!["TOTAL_DP_FLOPS".into(), "TOTAL_MEMORY_OPERATIONS".into()],
            freq_hz: 8.0,
            pinning: PinningStrategy::Compact,
        };
        let outcome = daemon.profile(&request).expect("profiling succeeds");
        let points = live
            .trajectory(&daemon.ts, &outcome.observation.id, 0.125)
            .expect("trajectory");
        let (live_ai, live_gflops) = steady_state_means(&points);
        phases.push(BenchPhase {
            kernel: kernel.name().to_string(),
            theoretical_ai: kernel.op_counts(n).arithmetic_intensity(),
            live_ai,
            live_gflops,
            points,
        });
    }
    Fig9Result { carm, phases }
}

/// Mean (AI, GFLOP/s) over the steady-state points of a trajectory.
/// Partial first/last windows (kernel starts/stops mid-window) dilute the
/// rates, and windows hit by batched-zero samples show AI 0 — both are
/// excluded, as a human reading the live panel would ignore the glitches.
/// AI aggregates as total-flops over total-bytes (work-weighted), not a
/// mean of per-window ratios.
pub fn steady_state_means(points: &[pmove_core::carm::LiveCarmPoint]) -> (f64, f64) {
    let max = points.iter().map(|p| p.gflops).fold(0.0, f64::max);
    let steady: Vec<_> = points
        .iter()
        .filter(|p| p.gflops >= 0.5 * max && p.ai > 0.0)
        .collect();
    let m = steady.len().max(1) as f64;
    // With uniform windows, per-window flops ∝ gflops and per-window
    // bytes ∝ gflops / ai.
    let flops: f64 = steady.iter().map(|p| p.gflops).sum();
    let bytes: f64 = steady.iter().map(|p| p.gflops / p.ai).sum();
    (if bytes > 0.0 { flops / bytes } else { 0.0 }, flops / m)
}

/// Render the panel.
pub fn format(r: &Fig9Result) -> String {
    let mut out = String::from("FIG 9: live-CARM during likwid benchmarks (CSL)\n");
    for p in &r.phases {
        out.push_str(&format!(
            "  {:<10} theoretical AI {:.4}, live AI {:.4}, live {:.0} GF/s\n",
            p.kernel, p.theoretical_ai, p.live_ai, p.live_gflops
        ));
    }
    let all: Vec<LiveCarmPoint> = r.phases.iter().flat_map(|p| p.points.clone()).collect();
    out.push_str(&pmove_core::carm::plot::render(&r.carm, &all, 72, 20));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn result() -> &'static Fig9Result {
        static CACHE: OnceLock<Fig9Result> = OnceLock::new();
        CACHE.get_or_init(run)
    }

    fn phase(kernel: &str) -> &'static BenchPhase {
        let phases = &result().phases;
        phases
            .iter()
            .find(|p| p.kernel == kernel)
            .expect("phase exists")
    }

    #[test]
    fn live_ai_captures_theoretical_ai() {
        // "the theoretical AI ... is accurately captured by the live-CARM".
        let r = result();
        for p in &r.phases {
            let rel = (p.live_ai - p.theoretical_ai).abs() / p.theoretical_ai;
            assert!(
                rel < 0.15,
                "{}: live {} vs theory {}",
                p.kernel,
                p.live_ai,
                p.theoretical_ai
            );
        }
        assert!((phase("ddot").theoretical_ai - 0.125).abs() < 1e-12);
        assert!((phase("peakflops").theoretical_ai - 2.0).abs() < 1e-12);
    }

    #[test]
    fn peakflops_reaches_the_fp_roof() {
        let r = result();
        let p = phase("peakflops");
        let peak = r.carm.peak_gflops();
        assert!(
            p.live_gflops > 0.8 * peak,
            "peakflops {} vs roof {peak}",
            p.live_gflops
        );
        assert!(p.live_gflops <= peak * 1.05);
    }

    #[test]
    fn triad_stays_under_the_l2_roof() {
        let r = result();
        let p = phase("triad");
        let l2_roof = r.carm.attainable(p.live_ai, "L2").expect("L2 roof");
        assert!(
            p.live_gflops <= l2_roof * 1.05,
            "triad {} above L2 roof {l2_roof}",
            p.live_gflops
        );
        // But meaningfully above the DRAM roof (it is cache-resident).
        let dram_roof = r.carm.attainable(p.live_ai, "DRAM").unwrap();
        assert!(p.live_gflops > dram_roof);
    }

    #[test]
    fn ddot_surpasses_the_l2_roof() {
        let r = result();
        let p = phase("ddot");
        let l2_roof = r.carm.attainable(p.live_ai, "L2").expect("L2 roof");
        assert!(
            p.live_gflops > l2_roof,
            "ddot {} did not surpass L2 roof {l2_roof}",
            p.live_gflops
        );
    }

    #[test]
    fn format_summarizes_phases() {
        let text = format(result());
        assert!(text.contains("triad"));
        assert!(text.contains("peakflops"));
        assert!(text.contains("ddot"));
    }
}
