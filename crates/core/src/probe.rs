//! Probing orchestration — steps ① and ② of the paper's Fig. 3.
//!
//! The daemon "copies the probing module to the target", runs it, and gets
//! back one JSON file with everything the KB generator needs. Here the
//! target is a simulated [`Machine`] and the probing module is
//! `pmove_hwsim::probe`; this layer adds validation and typed access.

use pmove_hwsim::probe::probe_machine;
use pmove_hwsim::Machine;
use serde_json::Value;

/// A validated probe report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// The raw JSON document (what would travel host ← target).
    pub json: Value,
}

impl ProbeReport {
    /// Probe a machine (steps ① and ② combined).
    pub fn collect(machine: &Machine) -> ProbeReport {
        ProbeReport {
            json: probe_machine(machine),
        }
    }

    /// Target hostname.
    pub fn hostname(&self) -> &str {
        self.json["system"]["hostname"]
            .as_str()
            .unwrap_or("unknown")
    }

    /// PMU name for the abstraction layer (`skx`, `zen3`, ...).
    pub(crate) fn pmu_name(&self) -> &str {
        self.json["cpu"]["pmu_name"].as_str().unwrap_or("unknown")
    }

    /// Hardware thread count.
    pub fn total_threads(&self) -> u64 {
        self.json["cpu"]["total_threads"].as_u64().unwrap_or(0)
    }

    /// The component records.
    pub(crate) fn components(&self) -> &[Value] {
        self.json["components"]
            .as_array()
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Names of the PMU events libpfm4-style probing discovered.
    pub fn pmu_event_names(&self) -> Vec<&str> {
        self.json["pmu_events"]
            .as_array()
            .map(|a| a.iter().filter_map(|e| e["name"].as_str()).collect())
            .unwrap_or_default()
    }

    /// The SW metric descriptors.
    pub(crate) fn sw_metrics(&self) -> &[Value] {
        self.json["sw_metrics"]
            .as_array()
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// GPU sections, if any.
    pub fn gpus(&self) -> &[Value] {
        self.json["gpus"]
            .as_array()
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_and_accessors() {
        let m = Machine::preset("csl").unwrap();
        let r = ProbeReport::collect(&m);
        assert_eq!(r.hostname(), "csl");
        assert_eq!(r.pmu_name(), "csl");
        assert_eq!(r.total_threads(), 56);
        assert!(!r.components().is_empty());
        assert!(r.pmu_event_names().contains(&"FP_ARITH:SCALAR_DOUBLE"));
        assert!(r.sw_metrics().len() >= 15);
        assert!(r.gpus().is_empty());
    }
}
