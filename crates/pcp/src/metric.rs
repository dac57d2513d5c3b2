//! Metric namespace and instance domains.

use pmove_hwsim::MachineSpec;

/// Instance domain of a metric: how many values one sample carries and how
/// the fields are named. Table III's losses scale with the domain size
/// (88 values per report on skx vs 16 on icl).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceDomain {
    /// A single value.
    Singular,
    /// One value per logical CPU (`_cpu0`, `_cpu1`, ...).
    PerCpu,
    /// One value per NUMA node (`_node0`, ...).
    PerNode,
    /// One value per package (RAPL domains).
    PerPackage,
    /// One value per block device.
    PerDisk,
    /// One value per NIC.
    PerNic,
    /// One value per GPU device (`_gpu0`, ...).
    PerGpu,
    /// One value per tracked process.
    PerProcess,
}

impl InstanceDomain {
    /// Field names this domain produces on a machine.
    pub fn instances(&self, spec: &MachineSpec) -> Vec<String> {
        match self {
            InstanceDomain::Singular => vec!["value".into()],
            InstanceDomain::PerCpu => (0..spec.total_threads())
                .map(|i| format!("_cpu{i}"))
                .collect(),
            InstanceDomain::PerNode | InstanceDomain::PerPackage => {
                (0..spec.sockets).map(|i| format!("_node{i}")).collect()
            }
            InstanceDomain::PerDisk => spec.disks.iter().map(|d| d.name.clone()).collect(),
            InstanceDomain::PerNic => vec!["eth0".into()],
            InstanceDomain::PerGpu => (0..spec.gpus.len()).map(|i| format!("_gpu{i}")).collect(),
            InstanceDomain::PerProcess => {
                // The tracked process set is dynamic; the default domain is
                // the interesting processes of the current observation.
                vec!["_proc_main".into()]
            }
        }
    }

    /// Domain size on a machine.
    pub fn size(&self, spec: &MachineSpec) -> usize {
        self.instances(spec).len()
    }
}

/// Description of one metric in the namespace.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDesc {
    /// Dotted PCP name (`kernel.percpu.cpu.idle`,
    /// `perfevent.hwcounters.FP_ARITH:SCALAR_DOUBLE`).
    pub name: String,
    /// Instance domain.
    pub indom: InstanceDomain,
    /// Human description.
    pub description: String,
}

impl MetricDesc {
    /// Build a descriptor.
    pub fn new(
        name: impl Into<String>,
        indom: InstanceDomain,
        description: impl Into<String>,
    ) -> Self {
        MetricDesc {
            name: name.into(),
            indom,
            description: description.into(),
        }
    }

    /// The time-series measurement name: dots and colons become
    /// underscores (`kernel_percpu_cpu_idle`,
    /// `perfevent_hwcounters_FP_ARITH_SCALAR_DOUBLE`).
    pub fn db_name(&self) -> String {
        self.name.replace(['.', ':'], "_")
    }

    /// Descriptor for a PMU hardware event.
    pub fn perfevent(event_name: &str, description: impl Into<String>, per_package: bool) -> Self {
        MetricDesc {
            name: format!("perfevent.hwcounters.{event_name}"),
            indom: if per_package {
                InstanceDomain::PerPackage
            } else {
                InstanceDomain::PerCpu
            },
            description: description.into(),
        }
    }

    /// Is this a hardware (PMU) metric?
    pub fn is_hw(&self) -> bool {
        self.name.starts_with("perfevent.")
    }

    /// The underlying PMU event name for perfevent metrics.
    pub fn event_name(&self) -> Option<&str> {
        self.name.strip_prefix("perfevent.hwcounters.")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_sizes_match_machines() {
        let skx = MachineSpec::skx();
        let icl = MachineSpec::icl();
        assert_eq!(InstanceDomain::PerCpu.size(&skx), 88);
        assert_eq!(InstanceDomain::PerCpu.size(&icl), 16);
        assert_eq!(InstanceDomain::PerNode.size(&skx), 2);
        assert_eq!(InstanceDomain::PerDisk.size(&skx), 4);
        assert_eq!(InstanceDomain::Singular.size(&skx), 1);
    }

    #[test]
    fn instance_field_names() {
        let icl = MachineSpec::icl();
        let cpus = InstanceDomain::PerCpu.instances(&icl);
        assert_eq!(cpus[0], "_cpu0");
        assert_eq!(cpus[15], "_cpu15");
        assert_eq!(
            InstanceDomain::PerNode.instances(&icl),
            vec!["_node0".to_string()]
        );
    }

    #[test]
    fn db_name_flattening() {
        let m = MetricDesc::new("kernel.percpu.cpu.idle", InstanceDomain::PerCpu, "idle");
        assert_eq!(m.db_name(), "kernel_percpu_cpu_idle");
        let hw = MetricDesc::perfevent("FP_ARITH:SCALAR_DOUBLE", "scalar fp", false);
        assert_eq!(hw.db_name(), "perfevent_hwcounters_FP_ARITH_SCALAR_DOUBLE");
    }

    #[test]
    fn perfevent_helpers() {
        let hw = MetricDesc::perfevent("RAPL_ENERGY_PKG", "energy", true);
        assert!(hw.is_hw());
        assert_eq!(hw.indom, InstanceDomain::PerPackage);
        assert_eq!(hw.event_name(), Some("RAPL_ENERGY_PKG"));
        let sw = MetricDesc::new("mem.util.used", InstanceDomain::Singular, "mem");
        assert!(!sw.is_hw());
        assert_eq!(sw.event_name(), None);
    }
}
