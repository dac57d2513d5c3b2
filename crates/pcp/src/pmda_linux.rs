//! `pmdalinux`: software/system-state metrics from the simulated OS.

use crate::agent::{Agent, Sample};
use crate::metric::{InstanceDomain, MetricDesc};
use pmove_hwsim::system_state::{StateSnapshot, SystemState};
use pmove_hwsim::MachineSpec;

/// The Linux kernel-metrics agent.
pub struct LinuxAgent {
    state: SystemState,
    /// The snapshot of the last `t_now` sampled (its bits), shared by every
    /// metric of one tick.
    snap: Option<(u64, StateSnapshot)>,
    total_mem_bytes: f64,
    disk_names: Vec<String>,
}

impl LinuxAgent {
    /// Agent for a machine.
    pub fn new(spec: MachineSpec) -> Self {
        let total_mem_bytes = spec.mem_gb as f64 * 1e9;
        let disk_names = spec.disks.iter().map(|d| d.name.clone()).collect();
        let state = SystemState::new(spec);
        LinuxAgent {
            state,
            snap: None,
            total_mem_bytes,
            disk_names,
        }
    }

    /// Mutable access to the system state, so Scenario B can mark threads
    /// busy during pinned kernel executions. The snapshot taken before is
    /// dropped.
    pub fn state_mut(&mut self) -> &mut SystemState {
        self.snap = None;
        &mut self.state
    }
}

impl Agent for LinuxAgent {
    fn name(&self) -> &str {
        "pmdalinux"
    }

    fn metrics(&self) -> Vec<MetricDesc> {
        vec![
            MetricDesc::new("kernel.all.load", InstanceDomain::Singular, "load average"),
            MetricDesc::new(
                "kernel.all.nprocs",
                InstanceDomain::Singular,
                "process count",
            ),
            MetricDesc::new("kernel.all.intr", InstanceDomain::Singular, "interrupts/s"),
            MetricDesc::new(
                "kernel.all.pswitch",
                InstanceDomain::Singular,
                "context switches/s",
            ),
            MetricDesc::new(
                "kernel.percpu.cpu.idle",
                InstanceDomain::PerCpu,
                "per-CPU idle",
            ),
            MetricDesc::new(
                "kernel.percpu.cpu.user",
                InstanceDomain::PerCpu,
                "per-CPU user",
            ),
            MetricDesc::new(
                "kernel.percpu.cpu.sys",
                InstanceDomain::PerCpu,
                "per-CPU system",
            ),
            MetricDesc::new("mem.util.used", InstanceDomain::Singular, "used memory"),
            MetricDesc::new("mem.util.free", InstanceDomain::Singular, "free memory"),
            MetricDesc::new(
                "mem.numa.alloc_hit",
                InstanceDomain::PerNode,
                "NUMA local hits",
            ),
            MetricDesc::new(
                "disk.dev.write_bytes",
                InstanceDomain::PerDisk,
                "bytes written",
            ),
            MetricDesc::new("disk.dev.read_bytes", InstanceDomain::PerDisk, "bytes read"),
            MetricDesc::new(
                "network.interface.out.bytes",
                InstanceDomain::PerNic,
                "bytes sent",
            ),
            MetricDesc::new(
                "network.interface.in.bytes",
                InstanceDomain::PerNic,
                "bytes received",
            ),
        ]
    }

    fn sample(&mut self, metric: &str, t_prev: f64, t_now: f64) -> Vec<Sample> {
        let at = t_now.to_bits();
        if self.snap.as_ref().is_none_or(|(held, _)| *held != at) {
            self.snap = Some((at, self.state.snapshot(t_now)));
        }
        let (_, snap) = self.snap.as_ref().expect("taken above");
        let dt = (t_now - t_prev).max(0.0);
        match metric {
            "kernel.all.load" => vec![("value".into(), snap.load_avg)],
            "kernel.all.nprocs" => vec![("value".into(), snap.n_procs as f64)],
            "kernel.all.intr" => vec![("value".into(), snap.intr_rate * dt)],
            "kernel.all.pswitch" => vec![("value".into(), snap.pswitch_rate * dt)],
            "mem.util.free" => vec![(
                "value".into(),
                (self.total_mem_bytes - snap.mem_used_bytes).max(0.0),
            )],
            "kernel.percpu.cpu.sys" => snap
                .cpu_idle
                .iter()
                .enumerate()
                // System time: a small slice of the non-idle time.
                .map(|(i, idle)| (format!("_cpu{i}"), 0.1 * (1.0 - idle) * dt))
                .collect(),
            "disk.dev.write_bytes" => snap
                .disk_write_bps
                .iter()
                .enumerate()
                .map(|(i, bps)| (self.disk_names[i].clone(), bps * dt))
                .collect(),
            "disk.dev.read_bytes" => snap
                .disk_read_bps
                .iter()
                .enumerate()
                .map(|(i, bps)| (self.disk_names[i].clone(), bps * dt))
                .collect(),
            "network.interface.out.bytes" => {
                vec![("eth0".into(), snap.nic_out_bps * dt)]
            }
            "network.interface.in.bytes" => {
                vec![("eth0".into(), snap.nic_in_bps * dt)]
            }
            "kernel.percpu.cpu.idle" => snap
                .cpu_idle
                .iter()
                .enumerate()
                // Idle *time* accumulated in the window, PCP-style.
                .map(|(i, idle)| (format!("_cpu{i}"), idle * dt))
                .collect(),
            "kernel.percpu.cpu.user" => snap
                .cpu_idle
                .iter()
                .enumerate()
                .map(|(i, idle)| (format!("_cpu{i}"), (1.0 - idle) * dt))
                .collect(),
            "mem.util.used" => vec![("value".into(), snap.mem_used_bytes)],
            "mem.numa.alloc_hit" => snap
                .numa_alloc_hit
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("_node{i}"), v * dt))
                .collect(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_expected_metrics() {
        let a = LinuxAgent::new(MachineSpec::icl());
        let names: Vec<String> = a.metrics().iter().map(|m| m.name.clone()).collect();
        assert!(names.contains(&"kernel.percpu.cpu.idle".to_string()));
        assert!(names.contains(&"mem.numa.alloc_hit".to_string()));
    }

    #[test]
    fn percpu_domain_matches_machine() {
        let mut a = LinuxAgent::new(MachineSpec::icl());
        let s = a.sample("kernel.percpu.cpu.idle", 0.0, 1.0);
        assert_eq!(s.len(), 16);
        assert_eq!(s[0].0, "_cpu0");
        assert!(s.iter().all(|(_, v)| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn busy_threads_reflected() {
        let mut a = LinuxAgent::new(MachineSpec::icl());
        a.state_mut().set_kernel_busy(&[(0, 1.0)]);
        let s = a.sample("kernel.percpu.cpu.idle", 0.0, 1.0);
        assert!(s[0].1 < 0.05);
        assert!(s[5].1 > 0.5);
    }

    #[test]
    fn load_set_between_samples_of_one_tick_is_seen() {
        let mut a = LinuxAgent::new(MachineSpec::icl());
        let idle = a.sample("kernel.percpu.cpu.idle", 0.0, 1.0);
        let load = a.sample("kernel.all.load", 0.0, 1.0)[0].1;
        a.state_mut().set_kernel_busy(&[(0, 1.0), (1, 1.0)]);
        // Same `t_now`: the snapshot held for the tick must not answer.
        let busy = a.sample("kernel.percpu.cpu.idle", 0.0, 1.0);
        assert!(idle[0].1 > 0.5 && busy[0].1 < 0.05, "{idle:?} {busy:?}");
        assert_eq!(busy[5], idle[5]);
        assert!(a.sample("kernel.all.load", 0.0, 1.0)[0].1 >= load + 2.0);
    }

    #[test]
    fn unknown_metric_empty() {
        let mut a = LinuxAgent::new(MachineSpec::icl());
        assert!(a.sample("bogus.metric", 0.0, 1.0).is_empty());
    }

    #[test]
    fn idle_scales_with_window() {
        let mut a = LinuxAgent::new(MachineSpec::icl());
        let s1 = a.sample("kernel.percpu.cpu.idle", 0.0, 1.0);
        let s2 = a.sample("kernel.percpu.cpu.idle", 0.0, 2.0);
        assert!(s2[3].1 > s1[3].1);
    }
}
