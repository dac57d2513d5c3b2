//! Fig. 8: live-CARM panel during MKL and Merge SpMV on hugetrace-00020,
//! original and RCM-reordered, on the CSL system.
//!
//! Expected placements: for each algorithm the RCM run yields higher
//! performance than the original; MKL sits above Merge (AVX-512 vs
//! scalar).

use pmove_core::carm::microbench::construct_carm;
use pmove_core::carm::{CarmModel, LiveCarm, LiveCarmPoint};
use pmove_core::profiles::spmv_profile;
use pmove_core::telemetry::pinning::PinningStrategy;
use pmove_core::telemetry::scenario_b::ProfileRequest;
use pmove_core::PMoveDaemon;
use pmove_spmv::profile::SpmvAlgorithm;
use pmove_spmv::reorder::Reordering;
use pmove_spmv::suite::SuiteMatrix;

/// One phase of the Fig. 8 panel (the colored squares in the paper).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Phase {
    /// Algorithm label (`mkl` / `merge`).
    pub(crate) algo: String,
    /// Reordering label (`none` / `rcm`).
    pub(crate) reorder: String,
    /// Live-CARM trajectory of this phase.
    pub(crate) points: Vec<LiveCarmPoint>,
    /// Mean achieved GFLOP/s over the phase.
    pub(crate) mean_gflops: f64,
    /// Mean arithmetic intensity over the phase.
    pub(crate) mean_ai: f64,
}

/// Experiment output: the CARM plus the four phases.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// The constructed CARM of the target.
    pub(crate) carm: CarmModel,
    /// The four execution phases.
    pub(crate) phases: Vec<Phase>,
}

/// Run the experiment at a matrix scale.
pub fn run(scale: f64) -> Fig8Result {
    let mut daemon = PMoveDaemon::for_preset("csl").expect("csl preset");
    let threads = daemon.machine.spec.total_cores();
    let carm = construct_carm(&daemon.machine, threads);
    let layer = daemon.layer.clone();
    let live = LiveCarm::new(&layer, "csl");

    let matrix = SuiteMatrix::Hugetrace00020.generate(scale);
    let mut phases = Vec::new();
    for reorder in [Reordering::None, Reordering::Rcm] {
        let a = reorder.apply(&matrix);
        for algo in [SpmvAlgorithm::Mkl, SpmvAlgorithm::Merge] {
            let per_iter_bytes = (a.nnz() as f64 * 2.5 + a.rows as f64) * 8.0;
            let iterations =
                ((daemon.machine.spec.dram_bw_total() * 2.0 / per_iter_bytes) as u64).max(1);
            let request = ProfileRequest {
                profile: spmv_profile(&a, algo, &daemon.machine.spec, threads, iterations),
                command: format!("spmv --algo {} --reorder {}", algo.label(), reorder.label()),
                generic_events: vec!["TOTAL_DP_FLOPS".into(), "TOTAL_MEMORY_OPERATIONS".into()],
                freq_hz: 8.0,
                pinning: PinningStrategy::Balanced,
            };
            let outcome = daemon.profile(&request).expect("profiling succeeds");
            let points = live
                .trajectory(&daemon.ts, &outcome.observation.id, 0.25)
                .expect("trajectory");
            let (mean_ai, mean_gflops) = crate::fig9::steady_state_means(&points);
            phases.push(Phase {
                algo: algo.label().to_string(),
                reorder: reorder.label().to_string(),
                points,
                mean_gflops,
                mean_ai,
            });
        }
    }
    Fig8Result { carm, phases }
}

/// Render the panel (summary plus ASCII plot).
pub fn format(r: &Fig8Result) -> String {
    let mut out = String::from("FIG 8: live-CARM during SpMV (hugetrace-00020, CSL)\n");
    for p in &r.phases {
        out.push_str(&format!(
            "  {:<6} {:<5}  mean AI {:.4} flops/B, mean {:.1} GF/s, {} samples\n",
            p.algo,
            p.reorder,
            p.mean_ai,
            p.mean_gflops,
            p.points.len()
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

    fn result() -> &'static Fig8Result {
        static CACHE: OnceLock<Fig8Result> = OnceLock::new();
        CACHE.get_or_init(|| run(2.0))
    }

    /// Mean GFLOP/s of one (algo, reorder) phase.
    fn gflops(algo: &str, reorder: &str) -> f64 {
        let phases = &result().phases;
        let p = phases
            .iter()
            .find(|p| p.algo == algo && p.reorder == reorder);
        p.expect("phase exists").mean_gflops
    }

    #[test]
    fn rcm_yields_higher_performance_per_algorithm() {
        assert!(
            gflops("mkl", "rcm") > gflops("mkl", "none"),
            "mkl: rcm {} vs none {}",
            gflops("mkl", "rcm"),
            gflops("mkl", "none")
        );
        assert!(gflops("merge", "rcm") > gflops("merge", "none"));
    }

    #[test]
    fn mkl_above_merge() {
        assert!(gflops("mkl", "none") > gflops("merge", "none"));
        assert!(gflops("mkl", "rcm") > gflops("merge", "rcm"));
    }

    #[test]
    fn points_sit_under_the_carm_roofs() {
        let r = result();
        for p in &r.phases {
            for pt in &p.points {
                if pt.gflops <= 0.0 {
                    continue;
                }
                // Every live point must be attainable under some roof.
                assert!(
                    r.carm.bounding_level(pt.ai, pt.gflops).is_some(),
                    "point ({}, {}) above all roofs",
                    pt.ai,
                    pt.gflops
                );
            }
        }
    }

    #[test]
    fn spmv_ai_is_low_as_expected() {
        // SpMV intensity sits well below 1 flop/byte.
        let r = result();
        for p in &r.phases {
            assert!(p.mean_ai > 0.01 && p.mean_ai < 0.5, "{p:?}");
        }
    }

    #[test]
    fn format_renders_plot() {
        let text = format(result());
        assert!(text.contains("live-CARM"));
        assert!(text.contains("●"));
    }
}
