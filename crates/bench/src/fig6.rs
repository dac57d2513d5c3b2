//! Fig. 6: system resource usage of metric shipment on skx — per-agent
//! CPU, memory, network and disk versus sampling frequency, for a 50-metric
//! configuration.

use pmove_hwsim::MachineSpec;
use pmove_pcp::resource::{agent_costs, host_disk_busy, usage, AgentUsage};

/// Values per sampling tick for the paper's 50-metric skx configuration:
/// 40 singular + 3 per-cpu (88 instances) + 4 per-node + 3 per-disk
/// metrics ≈ 320 values, matching the reported 15 937 data points per
/// 50-metric sweep cycle.
pub(crate) fn values_per_report(spec: &MachineSpec) -> u64 {
    40 + 3 * spec.total_threads() as u64 + 4 * spec.sockets as u64 + 3 * spec.disks.len() as u64
}

/// One agent's usage at one frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageRow {
    /// Agent name.
    pub(crate) agent: String,
    /// Sampling frequency (reports/s).
    pub(crate) freq: f64,
    /// Usage numbers.
    pub(crate) usage: AgentUsage,
    /// Host-disk busy fraction caused.
    pub(crate) disk_busy: f64,
}

/// Run the sweep on skx for the given frequencies.
pub fn run(freqs: &[f64]) -> Vec<UsageRow> {
    let spec = MachineSpec::skx();
    let vpr = values_per_report(&spec);
    let disk = &spec.disks[0];
    let mut out = Vec::new();
    for &f in freqs {
        for cost in agent_costs() {
            let u = usage(&cost, f, vpr);
            out.push(UsageRow {
                agent: cost.name.to_string(),
                freq: f,
                usage: u,
                disk_busy: host_disk_busy(disk, u.disk_bytes_per_s),
            });
        }
    }
    out
}

/// Render the figure data.
pub fn format(rows: &[UsageRow]) -> String {
    let vpr = values_per_report(&MachineSpec::skx());
    let mut out =
        format!("FIG 6: PCP agent resource usage on skx (50 metrics, {vpr} values/report)\n");
    out.push_str(&format!(
        "{:<15} {:>6} {:>8} {:>9} {:>11} {:>11} {:>9}\n",
        "Agent", "Freq", "CPU %", "RSS MB", "Net KB/s", "Disk KB/s", "DiskBusy"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:>6} {:>8.3} {:>9.1} {:>11.2} {:>11.2} {:>8.1}%\n",
            r.agent,
            r.freq,
            100.0 * r.usage.cpu_fraction,
            r.usage.rss_bytes / 1e6,
            r.usage.net_bytes_per_s / 1024.0,
            r.usage.disk_bytes_per_s / 1024.0,
            100.0 * r.disk_busy,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_flat_cpu_linear() {
        let rows = run(&[1.0, 2.0, 16.0]);
        let pmcd = |f: f64| {
            rows.iter()
                .find(|r| r.agent == "pmcd" && r.freq == f)
                .unwrap()
                .clone()
        };
        // Memory flat.
        assert_eq!(pmcd(1.0).usage.rss_bytes, pmcd(16.0).usage.rss_bytes);
        // CPU roughly linear outside the dip region (1 → 2 Hz).
        let r1 = pmcd(1.0).usage.cpu_fraction;
        let r2 = pmcd(2.0).usage.cpu_fraction;
        assert!((r2 / r1 - 2.0).abs() < 0.05, "ratio {}", r2 / r1);
    }

    #[test]
    fn dip_at_4_to_8_reports_per_second() {
        // The paper's under-utilization anomaly: 4 and 8 reports/s on skx
        // fall below the linear network trend.
        let rows = run(&[2.0, 4.0, 8.0]);
        let net = |f: f64| {
            rows.iter()
                .find(|r| r.agent == "pmcd" && r.freq == f)
                .unwrap()
                .usage
                .net_bytes_per_s
        };
        assert!(net(4.0) < 2.0 * net(2.0) * 0.95, "no dip at 4/s");
        assert!(net(8.0) < 4.0 * net(2.0) * 0.95, "no dip at 8/s");
    }

    #[test]
    fn pmdaproc_has_largest_memory() {
        let rows = run(&[1.0]);
        let proc_mem = rows
            .iter()
            .find(|r| r.agent == "pmdaproc")
            .unwrap()
            .usage
            .rss_bytes;
        for r in &rows {
            if r.agent != "pmdaproc" {
                assert!(r.usage.rss_bytes < proc_mem);
            }
        }
    }

    #[test]
    fn disk_io_small_but_growing() {
        let rows = run(&[1.0, 16.0]);
        let disk = |f: f64| {
            rows.iter()
                .find(|r| r.agent == "pmcd" && r.freq == f)
                .unwrap()
                .usage
                .disk_bytes_per_s
        };
        assert!(disk(16.0) > disk(1.0));
        // Even at 16 reports/s the host disk is far from saturated.
        let busy = rows
            .iter()
            .find(|r| r.agent == "pmcd" && r.freq == 16.0)
            .unwrap()
            .disk_busy;
        assert!(busy < 1.0);
    }

    #[test]
    fn values_per_report_consistent() {
        // 40 + 3·88 + 4·2 + 3·4 = 324 ≈ the paper's 319/report.
        let v = values_per_report(&MachineSpec::skx());
        assert!((300..=340).contains(&v), "{v}");
    }

    #[test]
    fn format_covers_all_agents() {
        let text = format(&run(&[1.0]));
        for a in ["pmcd", "pmdaperfevent", "pmdalinux", "pmdaproc"] {
            assert!(text.contains(a));
        }
    }
}
