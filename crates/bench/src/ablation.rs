//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **shipping capacity** — how Table III's losses respond to the
//!    end-to-end service capacity (the knob the 100 Mbit link + InfluxDB
//!    insert path sets);
//! 2. **counter multiplexing** — measurement error as the programmed
//!    event count exceeds the per-thread counter bank;
//! 3. **merge-path vs row-split partitioning** — worker load skew on
//!    row-length-skewed matrices.

use pmove_hwsim::noise::NoiseSource;
use pmove_hwsim::pmu::CounterBank;
use pmove_spmv::merge::merge_partition_work;
use pmove_spmv::row::row_chunk_work;
use pmove_spmv::suite::SuiteMatrix;

// ---------------------------------------------------------------------
// 1. Shipping capacity sweep
// ---------------------------------------------------------------------

/// Loss behaviour of the skx 32 Hz × 6-metric cell at one capacity.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CapacityPoint {
    /// Shipper capacity in values/s.
    pub(crate) capacity: f64,
    /// %L of the cell.
    pub(crate) loss_pct: f64,
    /// L+Z% of the cell.
    pub(crate) loss_plus_zero_pct: f64,
}

/// Sweep the end-to-end capacity and re-run the hottest Table III cell.
pub(crate) fn capacity_sweep(capacities: &[f64]) -> Vec<CapacityPoint> {
    use pmove_hwsim::network::LinkSpec;
    use pmove_hwsim::{ExecModel, Machine};
    use pmove_pcp::pmda_perfevent::PerfEventAgent;
    use pmove_pcp::{Pmcd, SamplingConfig, SamplingLoop, Shipper};
    use pmove_tsdb::Database;

    capacities
        .iter()
        .map(|&capacity| {
            let machine = Machine::preset("skx").expect("skx preset");
            let events = crate::table3::busy_metrics(&machine, 6);
            let refs: Vec<&str> = events.iter().map(String::as_str).collect();
            let mut agent = PerfEventAgent::new(machine.spec.clone(), &refs);
            agent.freq_hz = 32.0;
            let profile = {
                use pmove_hwsim::kernel_profile::{KernelProfile, Precision};
                let elems = (machine.spec.dram_bw_total() * 15.0 / 8.0) as u64;
                KernelProfile::named("ablation_busy")
                    .with_threads(machine.spec.total_threads())
                    .with_flops(machine.spec.arch.widest_isa(), Precision::F64, elems)
                    .with_mem(elems, elems / 3, machine.spec.arch.widest_isa())
                    .with_working_set(1 << 34)
            };
            agent.attach(ExecModel::new(machine.spec.clone()).run(&profile, 0.0));

            let db = Database::new("ablation");
            let mut shipper = Shipper::new(
                &db,
                LinkSpec::mbit_100(),
                1.0 / 32.0,
                &["ablation", &capacity.to_string()],
            );
            shipper.capacity_values_per_s = capacity;
            let mut pmcd = Pmcd::new();
            pmcd.register(Box::new(agent));
            let metrics: Vec<String> = events
                .iter()
                .map(|e| format!("perfevent.hwcounters.{e}"))
                .collect();
            let report = SamplingLoop::run(
                &SamplingConfig::new(metrics, 32.0, 0.0, 10.0),
                &mut pmcd,
                &mut shipper,
            );
            CapacityPoint {
                capacity,
                loss_pct: 100.0
                    * (report.expected_values
                        - report.transport.values_inserted
                        - report.transport.values_zeroed) as f64
                    / report.expected_values as f64,
                loss_plus_zero_pct: 100.0
                    * ((report.expected_values
                        - report.transport.values_inserted
                        - report.transport.values_zeroed)
                        + report.transport.values_zeroed) as f64
                    / report.expected_values as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// 2. Counter multiplexing error
// ---------------------------------------------------------------------

/// Mean absolute relative error of reading a true count of 1e6 through a
/// 4-counter bank programmed with `n_events`, over `trials` reads.
pub(crate) fn multiplexing_error(n_events: usize, trials: usize) -> f64 {
    let mut bank = CounterBank::with_capacity(4);
    for i in 0..n_events {
        bank.program(&format!("EV{i}"));
    }
    let mut noise = NoiseSource::from_labels(&["ablation", "mux", &n_events.to_string()]);
    let truth = 1.0e6;
    (0..trials)
        .map(|_| {
            let observed = bank.observed_count(truth, noise.uniform());
            (observed - truth).abs() / truth
        })
        .sum::<f64>()
        / trials as f64
}

// ---------------------------------------------------------------------
// 3. Partitioning skew
// ---------------------------------------------------------------------

/// Max/mean work skew of the two partitioners on a matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SkewPoint {
    /// Worker count.
    pub(crate) workers: usize,
    /// Row-chunk skew (max/mean of nnz per chunk).
    pub(crate) row_skew: f64,
    /// Merge-path skew (max/mean of path elements per partition).
    pub(crate) merge_skew: f64,
}

/// Sweep worker counts on the skewed `human_gene1` stand-in.
pub(crate) fn partition_skew(workers: &[usize]) -> Vec<SkewPoint> {
    let a = SuiteMatrix::HumanGene1.generate(1.0);
    workers
        .iter()
        .map(|&w| {
            let rw = row_chunk_work(&a, w);
            let mw = merge_partition_work(&a, w);
            let skew = |v: &[u64]| {
                let max = *v.iter().max().expect("non-empty") as f64;
                let mean = v.iter().sum::<u64>() as f64 / v.len() as f64;
                max / mean
            };
            SkewPoint {
                workers: w,
                row_skew: skew(&rw),
                merge_skew: skew(&mw),
            }
        })
        .collect()
}

/// Render all three ablations.
pub fn format_all() -> String {
    let mut out =
        String::from("ABLATIONS\n\n[1] shipping capacity vs losses (skx, 32 Hz, 6 metrics)\n");
    out.push_str(&format!("{:>12} {:>8} {:>8}\n", "values/s", "%L", "L+Z%"));
    for p in capacity_sweep(&[4_000.0, 8_000.0, 11_000.0, 16_000.0, 24_000.0, 48_000.0]) {
        out.push_str(&format!(
            "{:>12.0} {:>8.1} {:>8.1}\n",
            p.capacity, p.loss_pct, p.loss_plus_zero_pct
        ));
    }
    out.push_str("\n[2] counter multiplexing error (4 programmable counters)\n");
    out.push_str(&format!("{:>8} {:>12}\n", "#events", "|err|%"));
    for n in [2usize, 4, 6, 8, 12] {
        out.push_str(&format!(
            "{n:>8} {:>12.3}\n",
            100.0 * multiplexing_error(n, 2000)
        ));
    }
    out.push_str("\n[3] partition skew on human_gene1 (max/mean work)\n");
    out.push_str(&format!(
        "{:>8} {:>10} {:>11}\n",
        "workers", "row-split", "merge-path"
    ));
    for p in partition_skew(&[4, 8, 16, 32, 64]) {
        out.push_str(&format!(
            "{:>8} {:>10.3} {:>11.3}\n",
            p.workers, p.row_skew, p.merge_skew
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn losses_fall_as_capacity_rises() {
        let sweep = capacity_sweep(&[5_000.0, 11_000.0, 48_000.0]);
        assert!(sweep[0].loss_pct > sweep[1].loss_pct);
        assert!(sweep[1].loss_pct > sweep[2].loss_pct);
        // At very high capacity only zeros remain.
        assert!(sweep[2].loss_pct < 1.0, "{:?}", sweep[2]);
        assert!(sweep[2].loss_plus_zero_pct > 10.0);
    }

    #[test]
    fn multiplexing_error_grows_with_event_count() {
        let e4 = multiplexing_error(4, 1000);
        let e8 = multiplexing_error(8, 1000);
        let e12 = multiplexing_error(12, 1000);
        assert!(e4 < 1e-12, "no multiplexing, no error: {e4}");
        assert!(e8 > e4);
        assert!(e12 > e8);
    }

    #[test]
    fn merge_path_always_flatter_than_row_split() {
        for p in partition_skew(&[8, 32]) {
            assert!(
                p.merge_skew < p.row_skew,
                "workers {}: merge {} vs row {}",
                p.workers,
                p.merge_skew,
                p.row_skew
            );
            assert!(p.merge_skew < 1.05);
        }
    }

    #[test]
    fn format_renders_everything() {
        let text = format_all();
        assert!(text.contains("[1] shipping capacity"));
        assert!(text.contains("[2] counter multiplexing"));
        assert!(text.contains("[3] partition skew"));
    }
}
