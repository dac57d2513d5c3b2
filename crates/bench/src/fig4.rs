//! Fig. 4: relative errors between sampled metrics and likwid-bench
//! ground truth, per sampling frequency.
//!
//! Kernels execute a fixed operation stream (ground truth by
//! construction); `pmdaperfevent` samples the corresponding PMU events
//! through the lossy transport; the recalled totals are compared against
//! the truth. Following §V-A, the data volume is computed as
//! `(loads + stores) × 8` and the FLOP count from `FP_ARITH:SCALAR_DOUBLE`
//! on the Intel hosts and `RETIRED_SSE_AVX_FLOPS:ANY` on zen3.

use pmove_core::profiles::stream_kernel_profile;
use pmove_hwsim::network::LinkSpec;
use pmove_hwsim::vendor::{IsaExt, Vendor};
use pmove_hwsim::{ExecModel, Machine};
use pmove_kernels::StreamKernel;
use pmove_pcp::pmda_perfevent::PerfEventAgent;
use pmove_pcp::{Pmcd, SamplingConfig, SamplingLoop, Shipper};
use pmove_tsdb::{Database, Query};

/// Elements per kernel run (large enough that runs span multiple sampling
/// windows even at low frequency).
pub(crate) const N: u64 = 1 << 33;
/// Threads the kernels run with.
pub(crate) const THREADS: u32 = 4;

/// Measured errors for one (machine, frequency, kernel) cell.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ErrCell {
    /// Machine key.
    pub(crate) machine: String,
    /// Sampling frequency.
    pub(crate) freq: f64,
    /// Kernel name.
    pub(crate) kernel: String,
    /// Relative FLOP-count error in percent (positive = overcount).
    pub(crate) flops_err_pct: f64,
    /// Relative byte-volume error in percent.
    pub(crate) bytes_err_pct: f64,
}

/// Events carrying (flops, loads, stores) per vendor.
fn events_for(machine: &Machine) -> (&'static str, &'static str, &'static str) {
    match machine.spec.arch.vendor() {
        Vendor::Intel => (
            "FP_ARITH:SCALAR_DOUBLE",
            "MEM_INST_RETIRED:ALL_LOADS",
            "MEM_INST_RETIRED:ALL_STORES",
        ),
        Vendor::Amd => (
            "RETIRED_SSE_AVX_FLOPS:ANY",
            "LS_DISPATCH:LD_DISPATCH",
            "LS_DISPATCH:STORE_DISPATCH",
        ),
    }
}

/// Measure one cell.
pub(crate) fn measure(machine_key: &str, freq: f64, kernel: StreamKernel) -> ErrCell {
    let machine = Machine::preset(machine_key).expect("known machine");
    let (flop_ev, load_ev, store_ev) = events_for(&machine);
    let events = [flop_ev, load_ev, store_ev];

    let profile = stream_kernel_profile(kernel, N, THREADS, IsaExt::Scalar);
    let ops = kernel.op_counts(N);

    let mut agent = PerfEventAgent::new(machine.spec.clone(), &events);
    agent.freq_hz = freq;
    let exec = ExecModel::new(machine.spec.clone()).run(&profile, 0.0);
    let duration = exec.end_s().max(1.0 / freq);
    agent.attach(exec);

    let db = Database::new("fig4");
    let tag = format!("fig4-{machine_key}-{freq}-{}", kernel.name());
    let mut shipper = Shipper::new(&db, LinkSpec::mbit_100(), 1.0 / freq, &[&tag]);
    let mut pmcd = Pmcd::new();
    pmcd.set_tag("tag", tag.clone());
    pmcd.register(Box::new(agent));
    let metrics: Vec<String> = events
        .iter()
        .map(|e| format!("perfevent.hwcounters.{e}"))
        .collect();
    let config = SamplingConfig::new(metrics, freq, 0.0, duration);
    SamplingLoop::run(&config, &mut pmcd, &mut shipper);

    let total = |event: &str| -> f64 {
        let m = format!("perfevent_hwcounters_{}", event.replace([':', '.'], "_"));
        let q = Query::parse(&format!("SELECT * FROM \"{m}\" WHERE tag='{tag}'"));
        q.and_then(|q| db.query_frame(&q))
            .map_or(0.0, |f| f.total())
    };
    let flops_meas = total(flop_ev);
    let bytes_meas = (total(load_ev) + total(store_ev)) * 8.0;
    let bytes_truth = ops.total_bytes() as f64;

    ErrCell {
        machine: machine_key.to_string(),
        freq,
        kernel: kernel.name().to_string(),
        flops_err_pct: 100.0 * (flops_meas - ops.flops as f64) / ops.flops.max(1) as f64,
        bytes_err_pct: 100.0 * (bytes_meas - bytes_truth) / bytes_truth,
    }
}

/// Averaged errors per (machine, frequency) over the six kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrSummary {
    /// Machine key.
    pub(crate) machine: String,
    /// Sampling frequency.
    pub(crate) freq: f64,
    /// Mean FLOPs error (%).
    pub(crate) mean_flops_err_pct: f64,
    /// Mean bytes error (%).
    pub(crate) mean_bytes_err_pct: f64,
    /// Mean |error| across both metrics (%).
    pub(crate) mean_abs_err_pct: f64,
}

/// Run the full sweep.
pub fn run(machines: &[&str], freqs: &[f64]) -> Vec<ErrSummary> {
    let mut out = Vec::new();
    for &m in machines {
        for &f in freqs {
            let cells: Vec<ErrCell> = StreamKernel::fig4_set()
                .iter()
                .map(|&k| measure(m, f, k))
                .collect();
            let n = cells.len() as f64;
            out.push(ErrSummary {
                machine: m.to_string(),
                freq: f,
                mean_flops_err_pct: cells.iter().map(|c| c.flops_err_pct).sum::<f64>() / n,
                mean_bytes_err_pct: cells.iter().map(|c| c.bytes_err_pct).sum::<f64>() / n,
                mean_abs_err_pct: cells
                    .iter()
                    .map(|c| (c.flops_err_pct.abs() + c.bytes_err_pct.abs()) / 2.0)
                    .sum::<f64>()
                    / n,
            });
        }
    }
    out
}

/// Render the figure data.
pub fn format(rows: &[ErrSummary]) -> String {
    let mut out =
        String::from("FIG 4: relative error (%) of sampled FLOPs/bytes vs ground truth\n");
    out.push_str(&format!(
        "{:<6} {:>6} {:>14} {:>14} {:>12}\n",
        "Host", "Freq", "FLOPs err%", "Bytes err%", "|err|% mean"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:>6} {:>14.3} {:>14.3} {:>12.3}\n",
            r.machine, r.freq, r.mean_flops_err_pct, r.mean_bytes_err_pct, r.mean_abs_err_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_frequency_errors_are_small() {
        let c = measure("icl", 2.0, StreamKernel::Triad);
        assert!(c.flops_err_pct.abs() < 3.0, "flops err {}", c.flops_err_pct);
        assert!(c.bytes_err_pct.abs() < 3.0, "bytes err {}", c.bytes_err_pct);
    }

    #[test]
    fn zen3_uses_amd_events() {
        let c = measure("zen3", 2.0, StreamKernel::Ddot);
        // The AMD merged FLOP counter recalls the true count closely.
        assert!(c.flops_err_pct.abs() < 4.0, "err {}", c.flops_err_pct);
    }

    #[test]
    fn errors_grow_with_frequency_on_large_hosts() {
        // skx at 64 Hz: transmission losses cause visible undercounting.
        let lo = run(&["skx"], &[2.0]);
        let hi = run(&["skx"], &[64.0]);
        assert!(
            hi[0].mean_abs_err_pct > lo[0].mean_abs_err_pct,
            "hi {} lo {}",
            hi[0].mean_abs_err_pct,
            lo[0].mean_abs_err_pct
        );
        // Undercounting (negative bias) dominates at high frequency.
        assert!(hi[0].mean_flops_err_pct < 0.0);
    }

    #[test]
    fn format_lists_all_rows() {
        let rows = run(&["icl"], &[2.0, 8.0]);
        let text = format(&rows);
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("icl"));
    }
}
