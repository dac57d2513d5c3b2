//! Metric namespace and instance domains.

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
    pub(crate) fn new(
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
    pub(crate) fn db_name(&self) -> String {
        self.name.replace(['.', ':'], "_")
    }

    /// Descriptor for a PMU hardware event.
    pub(crate) fn perfevent(
        event_name: &str,
        description: impl Into<String>,
        per_package: bool,
    ) -> Self {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_name_flattening() {
        let m = MetricDesc::new("kernel.percpu.cpu.idle", InstanceDomain::PerCpu, "idle");
        assert_eq!(m.db_name(), "kernel_percpu_cpu_idle");
        let hw = MetricDesc::perfevent("FP_ARITH:SCALAR_DOUBLE", "scalar fp", false);
        assert_eq!(hw.db_name(), "perfevent_hwcounters_FP_ARITH_SCALAR_DOUBLE");
    }

    #[test]
    fn perfevent_domains() {
        let pkg = MetricDesc::perfevent("RAPL_ENERGY_PKG", "energy", true);
        assert_eq!(pkg.indom, InstanceDomain::PerPackage);
        let thread = MetricDesc::perfevent("FP_ARITH:SCALAR_DOUBLE", "fp", false);
        assert_eq!(thread.indom, InstanceDomain::PerCpu);
    }
}
