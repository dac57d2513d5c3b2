//! Table III: data points expected vs observed at the host DB, by
//! sampling frequency and metric count, on skx (88 threads/report) and
//! icl (16 threads/report).
//!
//! Reproduces the experiment of §V-A: `pmdaperfevent` samples metrics that
//! are highly unlikely to report zero (cycles, instructions, µops, ...)
//! while a kernel keeps every hardware thread busy; the unbuffered
//! shipping path loses points under load and delivers batched zeros at
//! high frequency.

use pmove_hwsim::kernel_profile::{KernelProfile, Precision};
use pmove_hwsim::network::LinkSpec;
use pmove_hwsim::vendor::Vendor;
use pmove_hwsim::{ExecModel, Machine};
use pmove_obs::{ConservationAudit, ConservationCell, Registry};
use pmove_pcp::pmda_perfevent::PerfEventAgent;
use pmove_pcp::{Pmcd, SamplingConfig, SamplingLoop, Shipper};
use pmove_tsdb::Database;

/// Experiment duration in (virtual) seconds — Expected values in the
/// paper's table correspond to 10 s runs.
pub(crate) const DURATION_S: f64 = 10.0;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Target host key.
    pub(crate) host: String,
    /// Sampling frequency (samples/s).
    pub(crate) freq: f64,
    /// Number of metrics sampled.
    pub(crate) n_metrics: usize,
    /// Field values expected at the DB.
    pub(crate) expected: u64,
    /// Field values inserted (including batched zeros).
    pub inserted: u64,
    /// Zero field values inserted.
    pub(crate) zeros: u64,
}

impl Row {
    /// %L: lost values over expected.
    pub(crate) fn loss_pct(&self) -> f64 {
        100.0 * (self.expected - self.inserted) as f64 / self.expected as f64
    }

    /// L+Z%: lost plus zeroed over expected.
    pub(crate) fn loss_plus_zero_pct(&self) -> f64 {
        100.0 * ((self.expected - self.inserted) + self.zeros) as f64 / self.expected as f64
    }

    /// Tput: inserted data points per second.
    pub(crate) fn tput(&self) -> f64 {
        self.inserted as f64 / DURATION_S
    }

    /// A.Tput: actually useful (non-zero) data points per second.
    pub(crate) fn actual_tput(&self) -> f64 {
        (self.inserted - self.zeros) as f64 / DURATION_S
    }
}

/// Metrics "highly unlikely to report zero" per vendor, in priority order.
pub(crate) fn busy_metrics(machine: &Machine, n: usize) -> Vec<String> {
    let names: &[&str] = match machine.spec.arch.vendor() {
        Vendor::Intel => &[
            "UNHALTED_CORE_CYCLES",
            "INSTRUCTION_RETIRED",
            "UOPS_DISPATCHED",
            "MEM_INST_RETIRED:ALL_LOADS",
            "MEM_INST_RETIRED:ALL_STORES",
            "FP_ARITH:SCALAR_DOUBLE",
        ],
        Vendor::Amd => &[
            "CYCLES_NOT_IN_HALT",
            "RETIRED_INSTRUCTIONS",
            "LS_DISPATCH:LD_DISPATCH",
            "LS_DISPATCH:STORE_DISPATCH",
            "RETIRED_SSE_AVX_FLOPS:ANY",
            "L1_DATA_CACHE_MISS",
        ],
    };
    names.iter().take(n).map(|s| s.to_string()).collect()
}

/// A kernel keeping every thread busy for the full experiment window.
fn busy_kernel(machine: &Machine) -> KernelProfile {
    let spec = &machine.spec;
    // Size memory traffic to fill ~1.5× the experiment duration.
    let bytes = spec.dram_bw_total() * DURATION_S * 1.5;
    let elems = (bytes / 8.0) as u64;
    KernelProfile::named("table3_busy")
        .with_threads(spec.total_threads())
        .with_flops(spec.arch.widest_isa(), Precision::F64, elems)
        .with_mem(elems * 2 / 3, elems / 3, spec.arch.widest_isa())
        .with_working_set(1 << 34)
}

/// Ship one cell's samples into a caller-provided database (possibly a
/// durable one), observed through `registry` (possibly disabled). This is the body
/// shared by `run_cell_audited` and the storage-engine bench, which
/// replays the same workload over the WAL/chunk store.
pub fn run_cell_into(
    db: &Database,
    registry: std::sync::Arc<Registry>,
    host: &str,
    freq: f64,
    n_metrics: usize,
) -> Row {
    let machine = Machine::preset(host).expect("known host");
    let events = busy_metrics(&machine, n_metrics);
    let refs: Vec<&str> = events.iter().map(String::as_str).collect();
    let mut agent = PerfEventAgent::new(machine.spec.clone(), &refs);
    agent.freq_hz = freq;
    let exec = ExecModel::new(machine.spec.clone()).run(&busy_kernel(&machine), 0.0);
    agent.attach(exec);

    let mut shipper = Shipper::new(
        db,
        LinkSpec::mbit_100(),
        1.0 / freq,
        &[host, &format!("t3-{freq}-{n_metrics}")],
    )
    .with_obs(registry);
    let mut pmcd = Pmcd::new();
    pmcd.set_tag("tag", format!("table3-{host}-{freq}-{n_metrics}"));
    pmcd.register(Box::new(agent));
    let metrics: Vec<String> = events
        .iter()
        .map(|e| format!("perfevent.hwcounters.{e}"))
        .collect();
    let config = SamplingConfig::new(metrics, freq, 0.0, DURATION_S);
    let report = SamplingLoop::run(&config, &mut pmcd, &mut shipper);
    Row {
        host: host.to_string(),
        freq,
        n_metrics,
        expected: report.expected_values,
        inserted: report.transport.values_inserted + report.transport.values_zeroed,
        zeros: report.transport.values_zeroed,
    }
}

/// Run one cell of the table with the transport observed through
/// `pmove-obs`: the cell's conservation counters come from the exported
/// self-telemetry (not the transport's private stats), so the audit
/// exercises the same numbers a self-dashboard would show.
pub(crate) fn run_cell_audited(host: &str, freq: f64, n_metrics: usize) -> (Row, ConservationCell) {
    let registry = Registry::shared();
    let db = Database::new("host");
    let row = run_cell_into(&db, registry.clone(), host, freq, n_metrics);

    let snap = registry.snapshot();
    let cell = ConservationCell {
        offered: snap
            .counter("pcp.transport.values_offered", &[])
            .unwrap_or(0),
        inserted: snap
            .counter("pcp.transport.values_inserted", &[])
            .unwrap_or(0),
        zeroed: snap
            .counter("pcp.transport.values_zeroed", &[])
            .unwrap_or(0),
        lost: snap.counter("pcp.transport.values_lost", &[]).unwrap_or(0),
    };
    (row, cell)
}

/// Run the whole table (skx and icl × {2, 8, 32} Hz × {4, 5, 6} metrics)
/// with a loss-conservation audit: one [`ConservationCell`] per table
/// cell, named `host/freqHz/nm`.
pub fn run_audited() -> (Vec<Row>, ConservationAudit) {
    let mut rows = Vec::new();
    let mut audit = ConservationAudit::new();
    for host in ["skx", "icl"] {
        for freq in [2.0, 8.0, 32.0] {
            for mt in [4, 5, 6] {
                let (row, cell) = run_cell_audited(host, freq, mt);
                audit.record(&format!("{host}/{freq}Hz/{mt}m"), cell);
                rows.push(row);
            }
        }
    }
    (rows, audit)
}

/// Render the table.
pub fn format(rows: &[Row]) -> String {
    let mut out = String::from("TABLE III: data points expected/observed at the host DB\n");
    out.push_str(&format!(
        "{:<5} {:>5} {:>4} {:>11} {:>11} {:>10} {:>6} {:>6} {:>9} {:>9}\n",
        "Host", "Freq", "#mt", "Expected", "Inserted", "Zeros", "%L", "L+Z%", "Tput", "A.Tput"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<5} {:>5} {:>4} {:>11.2e} {:>11.2e} {:>10.2e} {:>6.1} {:>6.1} {:>9.1} {:>9.1}\n",
            r.host,
            r.freq,
            r.n_metrics,
            r.expected as f64,
            r.inserted as f64,
            r.zeros as f64,
            r.loss_pct(),
            r.loss_plus_zero_pct(),
            r.tput(),
            r.actual_tput(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_counts_match_paper_formula() {
        // skx @ 2 Hz × 4 metrics × 88 threads × 10 s = 7040 (Table III).
        let r = run_cell_audited("skx", 2.0, 4).0;
        assert_eq!(r.expected, 7040);
        let r = run_cell_audited("icl", 2.0, 4).0;
        assert_eq!(r.expected, 1280);
    }

    #[test]
    fn low_frequency_losses_are_negligible() {
        let r = run_cell_audited("skx", 2.0, 6).0;
        assert!(r.loss_pct() < 8.0, "loss {}", r.loss_pct());
        assert_eq!(r.zeros, 0, "no batched zeros at 2 Hz");
        let r = run_cell_audited("icl", 2.0, 5).0;
        assert!(r.loss_pct() < 4.0);
    }

    #[test]
    fn skx_high_frequency_loses_many_points() {
        // "more than half of the data points are lost in transmission on
        // skx" (loss+zeros) at 32 Hz.
        let r = run_cell_audited("skx", 32.0, 5).0;
        assert!(r.loss_pct() > 10.0, "loss {}", r.loss_pct());
        assert!(
            r.loss_plus_zero_pct() > 40.0,
            "L+Z {}",
            r.loss_plus_zero_pct()
        );
        assert!(r.zeros > 0);
    }

    #[test]
    fn icl_small_domain_low_loss_but_zeros() {
        // icl at 32 Hz: ~2-3 % loss but ~1/3 of points are zeros.
        let r = run_cell_audited("icl", 32.0, 6).0;
        assert!(r.loss_pct() < 10.0, "loss {}", r.loss_pct());
        let zero_frac = 100.0 * r.zeros as f64 / r.expected as f64;
        assert!(zero_frac > 15.0, "zeros {zero_frac}%");
    }

    #[test]
    fn loss_correlates_with_domain_size() {
        // skx (88 fields/report) loses a larger share than icl (16).
        let skx = run_cell_audited("skx", 32.0, 6).0;
        let icl = run_cell_audited("icl", 32.0, 6).0;
        assert!(skx.loss_pct() > icl.loss_pct());
    }

    #[test]
    fn throughput_accounting_consistent() {
        let r = run_cell_audited("icl", 8.0, 6).0;
        assert!(r.actual_tput() <= r.tput());
        assert!((r.tput() - r.inserted as f64 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn every_cell_conserves_offered_values_exactly() {
        // A lossy cell (skx @ 32 Hz sheds >half its points) still balances:
        // every offered value is inserted, zeroed, or lost — never unaccounted.
        let (row, cell) = run_cell_audited("skx", 32.0, 5);
        assert!(cell.lost > 0, "cell should actually lose points");
        assert_eq!(cell.inserted + cell.zeroed, row.inserted);
        let mut audit = ConservationAudit::new();
        audit.record("skx/32Hz/5m", cell);
        assert_eq!(audit.verify(), Ok(1));
    }

    #[test]
    fn formatting_contains_all_rows() {
        let rows = vec![run_cell_audited("icl", 2.0, 4).0];
        let text = format(&rows);
        assert!(text.contains("icl"));
        assert!(text.contains("1.28e3"));
    }
}
