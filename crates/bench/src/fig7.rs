//! Fig. 7: live PMU events during SpMV execution on the Intel CSL system.
//!
//! Each of the five matrices is processed by Intel-MKL-style SpMV followed
//! by merge-based SpMV, on the original and RCM-reordered forms, while
//! P-MoVE captures SCALAR/AVX-512 FP instructions, total memory
//! instructions, and package power. Expected shapes (§V-D):
//! AVX-512 events only during MKL, scalar FP only during Merge; Merge
//! shows more memory instructions and higher power; the RCM pass finishes
//! ≈22 % faster end-to-end.

use pmove_core::profiles::spmv_profile;
use pmove_core::telemetry::pinning::PinningStrategy;
use pmove_core::telemetry::scenario_b::{recall_generic_total, ProfileRequest};
use pmove_core::PMoveDaemon;
use pmove_spmv::profile::SpmvAlgorithm;
use pmove_spmv::reorder::Reordering;
use pmove_spmv::suite::SuiteMatrix;

/// One execution's recalled metrics.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExecRow {
    /// Matrix name.
    pub(crate) matrix: String,
    /// Algorithm label.
    pub(crate) algo: String,
    /// Reordering label.
    pub(crate) reorder: String,
    /// Execution duration (s).
    pub(crate) duration_s: f64,
    /// Scalar double FP instructions recalled.
    pub(crate) scalar_instr: f64,
    /// AVX-512 double FP instructions recalled.
    pub(crate) avx512_instr: f64,
    /// Total memory operations recalled.
    pub(crate) mem_ops: f64,
    /// Mean package power (W).
    pub(crate) power_w: f64,
}

/// The whole experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Per-execution rows (matrix × algorithm × reorder).
    pub(crate) rows: Vec<ExecRow>,
    /// Total time over all original-matrix executions.
    pub(crate) total_original_s: f64,
    /// Total time over all RCM executions.
    pub(crate) total_rcm_s: f64,
}

impl Fig7Result {
    /// RCM end-to-end improvement in percent.
    pub(crate) fn rcm_improvement_pct(&self) -> f64 {
        100.0 * (self.total_original_s - self.total_rcm_s) / self.total_original_s
    }
}

/// Generic events captured (the Fig. 7 panel set).
pub(crate) const EVENTS: [&str; 4] = [
    "SCALAR_DP_INSTRUCTIONS",
    "AVX512_DP_INSTRUCTIONS",
    "TOTAL_MEMORY_OPERATIONS",
    "RAPL_ENERGY_PKG",
];

/// Run the experiment at a matrix scale (1.0 reproduces the figure;
/// smaller scales for tests).
pub fn run(scale: f64) -> Fig7Result {
    let mut daemon = PMoveDaemon::for_preset("csl").expect("csl preset");
    let threads = daemon.machine.spec.total_cores();
    let mut rows = Vec::new();
    let mut totals = [0.0f64; 2]; // [original, rcm]

    for (ri, reorder) in [Reordering::None, Reordering::Rcm].iter().enumerate() {
        for m in SuiteMatrix::all() {
            let a = reorder.apply(&m.generate(scale));
            for algo in [SpmvAlgorithm::Mkl, SpmvAlgorithm::Merge] {
                // Calibrate iterations so each execution spans ~1 s.
                let per_iter_bytes = (a.nnz() as f64 * 2.5 + a.rows as f64) * 8.0;
                let target = daemon.machine.spec.dram_bw_total() * 1.0;
                let iterations = ((target / per_iter_bytes) as u64).max(1);
                let profile = spmv_profile(&a, algo, &daemon.machine.spec, threads, iterations);
                let request = ProfileRequest {
                    profile,
                    command: format!(
                        "spmv --algo {} --matrix {} --reorder {}",
                        algo.label(),
                        m.name(),
                        reorder.label()
                    ),
                    generic_events: EVENTS.iter().map(|s| s.to_string()).collect(),
                    freq_hz: 4.0,
                    pinning: PinningStrategy::Balanced,
                };
                let outcome = daemon.profile(&request).expect("profiling succeeds");
                let obs = &outcome.observation;
                let recall = |g: &str| {
                    recall_generic_total(&daemon.ts, &daemon.layer, "csl", g, &obs.id)
                        .unwrap_or(0.0)
                };
                let duration = outcome.execution.duration_s;
                rows.push(ExecRow {
                    matrix: m.name().to_string(),
                    algo: algo.label().to_string(),
                    reorder: reorder.label().to_string(),
                    duration_s: duration,
                    scalar_instr: recall("SCALAR_DP_INSTRUCTIONS"),
                    avx512_instr: recall("AVX512_DP_INSTRUCTIONS"),
                    mem_ops: recall("TOTAL_MEMORY_OPERATIONS"),
                    power_w: recall("RAPL_ENERGY_PKG") / duration,
                });
                totals[ri] += duration;
            }
        }
    }
    Fig7Result {
        rows,
        total_original_s: totals[0],
        total_rcm_s: totals[1],
    }
}

/// Render the experiment output.
pub fn format(r: &Fig7Result) -> String {
    let mut out = String::from("FIG 7: live PMU events during SpMV (CSL)\n");
    out.push_str(&format!(
        "{:<18} {:<6} {:<5} {:>9} {:>12} {:>12} {:>12} {:>8}\n",
        "Matrix", "Algo", "Ord", "Time s", "Scalar FP", "AVX512 FP", "Mem ops", "Power W"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "{:<18} {:<6} {:<5} {:>9.4} {:>12.3e} {:>12.3e} {:>12.3e} {:>8.1}\n",
            row.matrix,
            row.algo,
            row.reorder,
            row.duration_s,
            row.scalar_instr,
            row.avx512_instr,
            row.mem_ops,
            row.power_w
        ));
    }
    out.push_str(&format!(
        "total: original {:.3} s, rcm {:.3} s — RCM {:.1}% faster\n",
        r.total_original_s,
        r.total_rcm_s,
        r.rcm_improvement_pct()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn result() -> &'static Fig7Result {
        static CACHE: OnceLock<Fig7Result> = OnceLock::new();
        CACHE.get_or_init(|| run(2.0))
    }

    #[test]
    fn isa_contrast_between_algorithms() {
        let r = result();
        for row in &r.rows {
            if row.algo == "mkl" {
                assert!(
                    row.avx512_instr > 100.0 * row.scalar_instr.max(1.0),
                    "{row:?}"
                );
            } else {
                assert!(
                    row.scalar_instr > 100.0 * row.avx512_instr.max(1.0),
                    "{row:?}"
                );
            }
        }
    }

    #[test]
    fn merge_shows_more_memory_ops_and_power() {
        let r = result();
        for m in SuiteMatrix::all() {
            for ord in ["none", "rcm"] {
                let find = |algo: &str| {
                    r.rows
                        .iter()
                        .find(|x| x.matrix == m.name() && x.algo == algo && x.reorder == ord)
                        .unwrap()
                };
                let mkl = find("mkl");
                let merge = find("merge");
                assert!(
                    merge.mem_ops > mkl.mem_ops,
                    "{}: merge {} vs mkl {}",
                    m.name(),
                    merge.mem_ops,
                    mkl.mem_ops
                );
                assert!(
                    merge.power_w > mkl.power_w * 0.98,
                    "{}: merge {}W vs mkl {}W",
                    m.name(),
                    merge.power_w,
                    mkl.power_w
                );
            }
        }
    }

    #[test]
    fn rcm_pass_is_meaningfully_faster() {
        let r = result();
        let imp = r.rcm_improvement_pct();
        assert!(imp > 5.0, "rcm improvement only {imp}%");
        assert!(imp < 60.0, "rcm improvement implausibly high {imp}%");
    }

    #[test]
    fn every_combination_present() {
        let r = result();
        assert_eq!(r.rows.len(), 5 * 2 * 2);
        let text = format(r);
        assert!(text.contains("hugetrace-00020"));
        assert!(text.contains("RCM"));
    }
}
