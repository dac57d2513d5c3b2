//! Performance-variability study (extension).
//!
//! The paper's opening sentence motivates P-MoVE with variability from
//! "load imbalances, CPU throttling, reduced frequency, shared resource
//! contention". With the DVFS model enabled, the same FP workload
//! compiled for different vector widths lands at visibly different
//! effective frequencies — and the monitoring stack sees it: the
//! CPU_CYCLES rate per thread drops while FLOP throughput rises.

use pmove_hwsim::kernel_profile::{KernelProfile, Precision};
use pmove_hwsim::{ExecModel, MachineSpec, Quantity};

/// One ISA variant's outcome under DVFS.
#[derive(Debug, Clone, PartialEq)]
pub struct VariabilityRow {
    /// ISA the kernel was compiled for.
    pub(crate) isa: &'static str,
    /// Effective core clock (GHz).
    pub(crate) clock_ghz: f64,
    /// Run time (s).
    pub(crate) duration_s: f64,
    /// Achieved GFLOP/s.
    pub(crate) gflops: f64,
    /// Observed cycles-per-second per active thread (what a monitoring
    /// stack derives from CPU_CYCLES — the throttling fingerprint).
    pub(crate) cycles_rate_per_thread: f64,
}

/// Run the same FP workload at every ISA width on a machine, DVFS on.
pub fn isa_sweep(spec: &MachineSpec) -> Vec<VariabilityRow> {
    let model = ExecModel::new(spec.clone()).with_dvfs();
    let threads = spec.total_cores();
    let flops: u64 = 1 << 38;
    spec.arch
        .isa_extensions()
        .iter()
        .map(|&isa| {
            let profile = KernelProfile::named(format!("var_{}", isa.label()))
                .with_threads(threads)
                .with_flops(isa, Precision::F64, flops)
                .with_mem(1 << 16, 0, isa)
                .with_working_set(16 << 10);
            let clock = model.clock_ghz(&profile);
            let exec = model.run(&profile, 0.0);
            let cycles = exec.quantity_total(Quantity::Cycles);
            VariabilityRow {
                isa: isa.label(),
                clock_ghz: clock,
                duration_s: exec.duration_s,
                gflops: exec.gflops(),
                cycles_rate_per_thread: cycles / exec.duration_s / threads as f64,
            }
        })
        .collect()
}

/// The end-to-end variability this mechanism alone creates: max/min run
/// time across ISA variants of the *same* logical workload.
pub(crate) fn runtime_spread(rows: &[VariabilityRow]) -> f64 {
    let max = rows.iter().map(|r| r.duration_s).fold(0.0, f64::max);
    let min = rows
        .iter()
        .map(|r| r.duration_s)
        .fold(f64::INFINITY, f64::min);
    max / min
}

/// Render the study.
pub fn format(spec_key: &str, rows: &[VariabilityRow]) -> String {
    let mut out = format!("VARIABILITY (DVFS on, {spec_key}): same FP work per ISA width\n");
    out.push_str(&format!(
        "{:<8} {:>10} {:>10} {:>10}\n",
        "ISA", "clock GHz", "time s", "GF/s"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>10.2} {:>10.4} {:>10.1}\n",
            r.isa, r.clock_ghz, r.duration_s, r.gflops
        ));
    }
    out.push_str(&format!(
        "runtime spread (max/min): {:.1}x\n",
        runtime_spread(rows)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_isa_throttles_clock_but_still_wins() {
        let rows = isa_sweep(&MachineSpec::csl());
        assert_eq!(rows.len(), 4);
        // Clock monotonically drops with width…
        for w in rows.windows(2) {
            assert!(w[0].clock_ghz >= w[1].clock_ghz);
        }
        let scalar = &rows[0];
        let avx512 = rows.last().unwrap();
        assert!(avx512.clock_ghz < scalar.clock_ghz * 0.9);
        // …but throughput still rises strongly (throttled AVX-512 beats
        // full-clock scalar by far).
        assert!(avx512.gflops > 4.0 * scalar.gflops);
        // The monitoring fingerprint: cycle rate per thread drops.
        assert!(avx512.cycles_rate_per_thread < scalar.cycles_rate_per_thread);
    }

    #[test]
    fn throttling_alone_creates_large_runtime_spread() {
        // The paper's motivation: frequency effects alone produce multi-x
        // differences for the same logical FP work.
        let rows = isa_sweep(&MachineSpec::csl());
        assert!(runtime_spread(&rows) > 4.0);
    }

    #[test]
    fn zen3_sweep_has_three_isas_and_mild_throttling() {
        let rows = isa_sweep(&MachineSpec::zen3());
        assert_eq!(rows.len(), 3);
        let scalar = &rows[0];
        let avx2 = rows.last().unwrap();
        assert!(avx2.clock_ghz > scalar.clock_ghz * 0.95);
    }

    #[test]
    fn format_reports_spread() {
        let text = format("csl", &isa_sweep(&MachineSpec::csl()));
        assert!(text.contains("runtime spread"));
        assert!(text.contains("avx512"));
    }
}
