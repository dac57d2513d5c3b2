//! Scenario A (Fig. 3): always-on software telemetry.
//!
//! Using the KB, P-MoVE configures the PCP collectors and samples
//! system-related metrics — CPU/memory usage, NUMA events, energy — at low
//! frequency. The dashboards are generated on the host from the same KB,
//! so they are ready before the target starts reporting (steps A1/A2 run
//! concurrently). The sampling window itself is the daemon's
//! (`PMoveDaemon::monitor*`); this module holds what it configures.

use crate::kb::KnowledgeBase;
use pmove_hwsim::Machine;
use pmove_obs::Registry;
use pmove_pcp::pmda_linux::LinuxAgent;
use pmove_pcp::pmda_proc::{ProcAgent, TrackedProcess};
use pmove_pcp::{Pmcd, ReplSamplingReport};

/// Default SW metric set of Scenario A (≈20 pmdalinux metrics in the
/// paper; this is the modelled subset).
pub fn default_sw_metrics() -> Vec<String> {
    vec![
        "kernel.all.load".into(),
        "kernel.all.nprocs".into(),
        "kernel.all.intr".into(),
        "kernel.all.pswitch".into(),
        "kernel.percpu.cpu.idle".into(),
        "kernel.percpu.cpu.user".into(),
        "kernel.percpu.cpu.sys".into(),
        "mem.util.used".into(),
        "mem.util.free".into(),
        "mem.numa.alloc_hit".into(),
        "disk.dev.write_bytes".into(),
        "disk.dev.read_bytes".into(),
        "network.interface.out.bytes".into(),
        "network.interface.in.bytes".into(),
    ]
}

/// GPU SW metrics sampled when devices are attached (`pcp-pmda-nvidia`
/// "essentially capturing every metric supported by NVML"; this is the
/// always-on subset).
pub(crate) fn default_gpu_metrics() -> Vec<String> {
    vec![
        "nvidia.memused".into(),
        "nvidia.gpuactive".into(),
        "nvidia.power".into(),
        "nvidia.temp".into(),
    ]
}

/// Configure the PCP collector stack from the KB: register the agents the
/// machine calls for and select the metrics some twin actually declares
/// as SWTelemetry. `busy` lists `(os thread index, busy fraction)` pairs
/// imposed by running processes, which the `pmdalinux` agent reflects in
/// the per-CPU idle metrics; pmcd reports its `pcp.*` self-telemetry into
/// `obs`.
pub(crate) fn configure_collectors(
    machine: &Machine,
    kb: &KnowledgeBase,
    busy: &[(u32, f64)],
    obs: &Registry,
) -> (Pmcd, Vec<String>) {
    let declared: Vec<String> = kb
        .interfaces
        .iter()
        .flat_map(|i| i.telemetry())
        .filter(|t| t.kind == pmove_jsonld::TelemetryKind::Software)
        .map(|t| t.sampler_name.clone())
        .collect();
    let mut metrics: Vec<String> = default_sw_metrics()
        .into_iter()
        .filter(|m| declared.contains(m))
        .collect();

    let mut pmcd = Pmcd::new();
    let mut linux = LinuxAgent::new(machine.spec.clone());
    linux.state_mut().set_kernel_busy(busy);
    pmcd.register(Box::new(linux));
    if !machine.spec.gpus.is_empty() {
        pmcd.register(Box::new(pmove_pcp::pmda_nvidia::NvidiaAgent::new(
            machine.spec.gpus.clone(),
        )));
        metrics.extend(
            default_gpu_metrics()
                .into_iter()
                .filter(|m| declared.contains(m)),
        );
    }
    pmcd.register(Box::new(ProcAgent::new(vec![TrackedProcess {
        name: "pmcd".into(),
        utime_per_s: 0.002,
        stime_per_s: 0.001,
        rss_bytes: 9.0e6,
        lifetime: None,
    }])));
    pmcd.set_obs(obs);
    (pmcd, metrics)
}

/// How a replicated monitoring window left the coordinator: the sampling
/// report plus the cluster-health view the daemon uses for failover and
/// degradation decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicatedOutcome {
    /// The sampling run (ticks, expected values, conservation ledger).
    pub report: ReplSamplingReport,
    /// Replicas the coordinator last saw answering heartbeats.
    pub healthy: usize,
    /// Primary replica index after any failovers.
    pub primary: usize,
    /// True when fewer than W replicas were reachable at the end of the
    /// window — the only condition that degrades the daemon.
    pub degraded: bool,
}
