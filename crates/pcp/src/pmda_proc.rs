//! `pmdaproc`: per-process metrics (CPU time, resident memory, I/O).
//!
//! The paper uses `proc.psinfo.utime`/`stime` for agent CPU measurements
//! and `proc.psinfo.rss` for memory (Fig. 6). This agent reports metrics
//! for a registered set of processes — typically the PCP agents themselves
//! plus any kernel launched by Scenario B.

use crate::agent::{Agent, Sample};
use crate::metric::{InstanceDomain, MetricDesc};

/// One tracked process with a simple linear resource model.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedProcess {
    /// Process name (instance name in the domain).
    pub name: String,
    /// User-mode CPU seconds consumed per second of wall time.
    pub utime_per_s: f64,
    /// System-mode CPU seconds per second.
    pub stime_per_s: f64,
    /// Resident set size in bytes (flat, as Fig. 6 observes for agents).
    pub rss_bytes: f64,
    /// Process lifetime `(start_s, end_s)` in virtual time; `None` means
    /// alive for the whole session (daemons like pmcd).
    pub lifetime: Option<(f64, f64)>,
}

impl TrackedProcess {
    /// Seconds of the window `[t_prev, t_now)` the process was alive.
    fn alive_overlap(&self, t_prev: f64, t_now: f64) -> f64 {
        match self.lifetime {
            None => (t_now - t_prev).max(0.0),
            Some((start, end)) => (t_now.min(end) - t_prev.max(start)).max(0.0),
        }
    }
}

/// The per-process agent.
pub struct ProcAgent {
    processes: Vec<TrackedProcess>,
}

impl ProcAgent {
    /// Agent with an initial process set.
    pub fn new(processes: Vec<TrackedProcess>) -> Self {
        ProcAgent { processes }
    }
}

impl Agent for ProcAgent {
    fn name(&self) -> &str {
        "pmdaproc"
    }

    fn metrics(&self) -> Vec<MetricDesc> {
        vec![
            MetricDesc::new(
                "proc.psinfo.utime",
                InstanceDomain::PerProcess,
                "user CPU time",
            ),
            MetricDesc::new(
                "proc.psinfo.stime",
                InstanceDomain::PerProcess,
                "system CPU time",
            ),
            MetricDesc::new(
                "proc.psinfo.rss",
                InstanceDomain::PerProcess,
                "resident set size",
            ),
        ]
    }

    fn sample(&mut self, metric: &str, t_prev: f64, t_now: f64) -> Vec<Sample> {
        self.processes
            .iter()
            .map(|p| {
                let alive = p.alive_overlap(t_prev, t_now);
                let v = match metric {
                    "proc.psinfo.utime" => p.utime_per_s * alive,
                    "proc.psinfo.stime" => p.stime_per_s * alive,
                    // RSS is a gauge: visible only while the process lives.
                    "proc.psinfo.rss" => {
                        if alive > 0.0 {
                            p.rss_bytes
                        } else {
                            0.0
                        }
                    }
                    _ => return (p.name.clone(), f64::NAN),
                };
                (p.name.clone(), v)
            })
            .filter(|(_, v)| !v.is_nan())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent() -> ProcAgent {
        ProcAgent::new(vec![
            TrackedProcess {
                name: "pmcd".into(),
                utime_per_s: 0.002,
                stime_per_s: 0.001,
                rss_bytes: 8e6,
                lifetime: None,
            },
            TrackedProcess {
                name: "spmv".into(),
                utime_per_s: 0.9,
                stime_per_s: 0.05,
                rss_bytes: 2e9,
                lifetime: None,
            },
        ])
    }

    #[test]
    fn cpu_time_scales_with_window() {
        let mut a = agent();
        let s = a.sample("proc.psinfo.utime", 0.0, 10.0);
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 0.02).abs() < 1e-12);
        assert!((s[1].1 - 9.0).abs() < 1e-12);
    }

    #[test]
    fn rss_is_a_gauge() {
        let mut a = agent();
        let s1 = a.sample("proc.psinfo.rss", 0.0, 1.0);
        let s2 = a.sample("proc.psinfo.rss", 1.0, 100.0);
        assert_eq!(s1, s2);
    }

    #[test]
    fn unknown_metric_empty() {
        assert!(agent().sample("proc.bogus", 0.0, 1.0).is_empty());
    }
}
