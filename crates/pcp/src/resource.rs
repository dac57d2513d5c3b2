//! Agent resource-usage models (Fig. 6 of the paper).
//!
//! Measured shapes being reproduced:
//! * **memory** is flat regardless of metric count or frequency, with
//!   `pmdaproc` the largest (big instance domain);
//! * **CPU** and **network** scale linearly with sampling frequency and
//!   the number of shipped values, with a stall-induced dip around 4–8
//!   reports/s on large machines (PCP fails to keep perfect pace without
//!   buffering);
//! * **disk** (host side) scales with inserted values.

use pmove_hwsim::disk::DiskSpec;

/// Resource usage of one agent over a measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentUsage {
    /// CPU utilization (fraction of one core).
    pub cpu_fraction: f64,
    /// Resident memory in bytes (flat).
    pub rss_bytes: f64,
    /// Network bytes per second produced.
    pub net_bytes_per_s: f64,
    /// Host-side disk bytes per second caused.
    pub disk_bytes_per_s: f64,
}

/// Static per-agent cost coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentCost {
    /// Agent name.
    pub name: &'static str,
    /// Flat resident memory (bytes).
    pub rss_bytes: f64,
    /// CPU seconds to produce one sampled value.
    pub cpu_s_per_value: f64,
    /// Wire bytes per sampled value (payload + share of headers).
    pub bytes_per_value: f64,
}

/// The four agents of Fig. 6.
pub fn agent_costs() -> [AgentCost; 4] {
    [
        AgentCost {
            name: "pmcd",
            rss_bytes: 9.0e6,
            cpu_s_per_value: 4.0e-6,
            bytes_per_value: 28.0,
        },
        AgentCost {
            name: "pmdaperfevent",
            rss_bytes: 6.5e6,
            cpu_s_per_value: 9.0e-6, // PMU reads via perf syscalls cost more
            bytes_per_value: 0.0,    // ships through pmcd
        },
        AgentCost {
            name: "pmdalinux",
            rss_bytes: 7.5e6,
            cpu_s_per_value: 3.0e-6,
            bytes_per_value: 0.0,
        },
        AgentCost {
            name: "pmdaproc",
            rss_bytes: 26.0e6, // larger instance domain (paper §V-B)
            cpu_s_per_value: 6.0e-6,
            bytes_per_value: 0.0,
        },
    ]
}

/// The under-utilization dip: PCP stalls around 4–8 reports/s on large
/// domains and fails to sample at pace, so CPU/network fall below the
/// linear trend (Fig. 6's 4/8-per-second anomaly). Returns the pace
/// efficiency in (0, 1].
pub(crate) fn pace_efficiency(freq_hz: f64, values_per_report: u64) -> f64 {
    let large_domain = values_per_report >= 50;
    if large_domain && (4.0..16.0).contains(&freq_hz) {
        0.82
    } else if large_domain && freq_hz >= 16.0 {
        0.9
    } else {
        1.0
    }
}

/// Compute one agent's usage when sampling `values_per_report` values at
/// `freq_hz` reports per second.
pub fn usage(cost: &AgentCost, freq_hz: f64, values_per_report: u64) -> AgentUsage {
    let eff = pace_efficiency(freq_hz, values_per_report);
    let values_per_s = freq_hz * values_per_report as f64 * eff;
    AgentUsage {
        cpu_fraction: values_per_s * cost.cpu_s_per_value,
        rss_bytes: cost.rss_bytes,
        net_bytes_per_s: values_per_s * cost.bytes_per_value,
        disk_bytes_per_s: if cost.name == "pmcd" {
            // Host-side DB appends ≈ 30 bytes/value in 512 B blocks.
            values_per_s * 30.0
        } else {
            0.0
        },
    }
}

/// Host disk busy fraction caused by telemetry appends.
pub fn host_disk_busy(disk: &DiskSpec, disk_bytes_per_s: f64) -> f64 {
    (disk_bytes_per_s / disk.write_throughput(512)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_flat_across_frequencies() {
        for cost in agent_costs() {
            let u1 = usage(&cost, 1.0, 50);
            let u32 = usage(&cost, 32.0, 50);
            assert_eq!(u1.rss_bytes, u32.rss_bytes);
        }
    }

    #[test]
    fn pmdaproc_uses_most_memory() {
        let costs = agent_costs();
        let proc_mem = costs
            .iter()
            .find(|c| c.name == "pmdaproc")
            .unwrap()
            .rss_bytes;
        for c in &costs {
            if c.name != "pmdaproc" {
                assert!(c.rss_bytes < proc_mem);
            }
        }
    }

    #[test]
    fn cpu_and_network_scale_linearly() {
        let pmcd = agent_costs()[0];
        let u2 = usage(&pmcd, 2.0, 20);
        let u4 = usage(&pmcd, 4.0, 20);
        // Small domain: no dip, exact 2x.
        assert!((u4.cpu_fraction / u2.cpu_fraction - 2.0).abs() < 1e-9);
        assert!((u4.net_bytes_per_s / u2.net_bytes_per_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pace_dip_on_large_domains() {
        // 50-metric × large-domain case dips at 4–8 reports/s.
        assert_eq!(pace_efficiency(2.0, 88), 1.0);
        assert!(pace_efficiency(4.0, 88) < 1.0);
        assert!(pace_efficiency(8.0, 88) < 1.0);
        assert!(pace_efficiency(8.0, 10) == 1.0); // small domain unaffected
        let pmcd = agent_costs()[0];
        let u2 = usage(&pmcd, 2.0, 88);
        let u4 = usage(&pmcd, 4.0, 88);
        assert!(u4.net_bytes_per_s < 2.0 * u2.net_bytes_per_s);
    }

    #[test]
    fn only_pmcd_causes_host_disk_io() {
        for cost in agent_costs() {
            let u = usage(&cost, 8.0, 50);
            if cost.name == "pmcd" {
                assert!(u.disk_bytes_per_s > 0.0);
            } else {
                assert_eq!(u.disk_bytes_per_s, 0.0);
            }
        }
    }

    #[test]
    fn disk_busy_fraction_bounded() {
        let d = DiskSpec::sata("sda");
        assert!(host_disk_busy(&d, 10.0) < 0.01);
        assert_eq!(host_disk_busy(&d, 1e12), 1.0);
    }
}
