//! Fig. 5: time overhead caused by profiling the six likwid-bench
//! kernels, per sampling frequency.
//!
//! Each kernel runs 5 times with and without sampling; run times are
//! averaged and the overhead is the relative difference. Run-to-run
//! variance can exceed the tiny sampling overhead, producing the paper's
//! *negative overheads*; the positive skew grows with frequency.

use pmove_core::profiles::stream_kernel_profile;
use pmove_hwsim::noise::NoiseSource;
use pmove_hwsim::vendor::IsaExt;
use pmove_hwsim::{ExecModel, Machine};
use pmove_kernels::StreamKernel;

/// Repetitions per configuration (the paper uses 5).
pub(crate) const REPS: usize = 5;
/// Elements per kernel run.
pub(crate) const N: u64 = 1 << 31;

/// Overhead of one (kernel, frequency) cell, in percent.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadCell {
    /// Kernel name.
    pub(crate) kernel: String,
    /// Sampling frequency.
    pub(crate) freq: f64,
    /// Mean run time without sampling (s).
    pub(crate) base_s: f64,
    /// Mean run time with sampling (s).
    pub(crate) sampled_s: f64,
}

impl OverheadCell {
    /// Overhead in percent (can be negative).
    pub(crate) fn overhead_pct(&self) -> f64 {
        100.0 * (self.sampled_s - self.base_s) / self.base_s
    }
}

/// Measure one cell on a machine. Distinct noise streams per repetition
/// model independent runs.
pub(crate) fn measure(
    machine: &Machine,
    kernel: StreamKernel,
    freq: f64,
    rep_seed: u64,
) -> OverheadCell {
    let model = ExecModel::new(machine.spec.clone());
    let profile = stream_kernel_profile(
        kernel,
        N,
        machine.spec.total_cores(),
        machine.spec.arch.widest_isa().min(IsaExt::Avx2),
    );
    let mut base = 0.0;
    let mut sampled = 0.0;
    for rep in 0..REPS {
        // Plain run: same run-to-run variance, no sampling perturbation.
        let mut noise = NoiseSource::from_labels(&[
            machine.key(),
            kernel.name(),
            &format!("plain-{rep_seed}-{rep}"),
        ]);
        let plain = model.run(&profile, 0.0).duration_s * noise.runtime_factor(0.0008);
        base += plain;
        let mut noise = NoiseSource::from_labels(&[
            machine.key(),
            kernel.name(),
            &format!("sampled-{freq}-{rep_seed}-{rep}"),
        ]);
        sampled += model
            .run_sampled(&profile, 0.0, freq, &mut noise)
            .duration_s;
    }
    OverheadCell {
        kernel: kernel.name().to_string(),
        freq,
        base_s: base / REPS as f64,
        sampled_s: sampled / REPS as f64,
    }
}

/// Full sweep over the six kernels and the frequency ladder.
pub fn run(machine_key: &str, freqs: &[f64]) -> Vec<OverheadCell> {
    let machine = Machine::preset(machine_key).expect("known machine");
    let mut out = Vec::new();
    for &f in freqs {
        for &k in &StreamKernel::fig4_set() {
            out.push(measure(&machine, k, f, 1));
        }
    }
    out
}

/// Render the figure data.
pub fn format(cells: &[OverheadCell]) -> String {
    let mut out = String::from("FIG 5: profiling overhead (%) per kernel and frequency\n");
    out.push_str(&format!(
        "{:<11} {:>6} {:>12}\n",
        "Kernel", "Freq", "Overhead %"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:<11} {:>6} {:>12.4}\n",
            c.kernel,
            c.freq,
            c.overhead_pct()
        ));
    }
    let mean: f64 = cells.iter().map(OverheadCell::overhead_pct).sum::<f64>() / cells.len() as f64;
    out.push_str(&format!("mean overhead: {mean:.4} %\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_tiny() {
        let cells = run("csl", &[1.0, 8.0, 64.0]);
        for c in &cells {
            assert!(
                c.overhead_pct().abs() < 0.5,
                "{} @ {} Hz: {}%",
                c.kernel,
                c.freq,
                c.overhead_pct()
            );
        }
    }

    #[test]
    fn negative_overheads_occur() {
        // The paper's surprising observation: variance between runs can
        // make measured overhead negative.
        let mut any_negative = false;
        for seed in 0..30 {
            let machine = Machine::preset("icl").unwrap();
            let c = measure(&machine, StreamKernel::Sum, 1.0, seed);
            if c.overhead_pct() < 0.0 {
                any_negative = true;
                break;
            }
        }
        assert!(any_negative, "no negative overhead in 30 trials");
    }

    #[test]
    fn positive_skew_grows_with_frequency() {
        // Mean over many seeds at high frequency is clearly positive and
        // larger than at low frequency.
        let machine = Machine::preset("csl").unwrap();
        let mean_at = |freq: f64| {
            (0..20)
                .map(|s| measure(&machine, StreamKernel::Triad, freq, s).overhead_pct())
                .sum::<f64>()
                / 20.0
        };
        let lo = mean_at(1.0);
        let hi = mean_at(64.0);
        assert!(hi > lo, "hi {hi} lo {lo}");
        assert!(hi > 0.0, "hi {hi}");
    }

    #[test]
    fn format_reports_all_cells() {
        let cells = run("icl", &[2.0]);
        let text = format(&cells);
        assert!(text.contains("peakflops"));
        assert!(text.contains("mean overhead"));
    }
}
