//! Scenario A (Fig. 3): always-on software telemetry.
//!
//! Using the KB, P-MoVE configures the PCP collectors and samples
//! system-related metrics — CPU/memory usage, NUMA events, energy — at low
//! frequency. The dashboards are generated on the host from the same KB,
//! so they are ready before the target starts reporting (steps A1/A2 run
//! concurrently).

use crate::error::PmoveError;
use crate::kb::KnowledgeBase;
use pmove_hwsim::network::LinkSpec;
use pmove_hwsim::{FaultSchedule, Machine};
use pmove_obs::Registry;
use pmove_pcp::pmda_linux::LinuxAgent;
use pmove_pcp::pmda_proc::{ProcAgent, TrackedProcess};
use pmove_pcp::{
    run_replicated, Pmcd, ReplSamplingReport, ReplShipper, ResilienceConfig, SamplingConfig,
    SamplingLoop, SamplingReport, Shipper,
};
use pmove_tsdb::{Database, ReplicaSet};
use std::sync::Arc;

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
pub fn default_gpu_metrics() -> Vec<String> {
    vec![
        "nvidia.memused".into(),
        "nvidia.gpuactive".into(),
        "nvidia.power".into(),
        "nvidia.temp".into(),
    ]
}

/// Configure collectors from the KB and run the monitoring loop for
/// `duration_s` seconds of virtual time at `freq_hz` into `ts`.
///
/// `busy` lists `(os thread index, busy fraction)` pairs imposed by
/// running processes, which the `pmdalinux` agent reflects in the per-CPU
/// idle metrics. The transport, sampler and pmcd report their `pcp.*`
/// self-telemetry into `obs` (possibly disabled). When `resilience` is
/// given, the shipper spills instead of dropping, retries with backoff
/// behind a circuit breaker, and marks recovery gaps; when `fault` is
/// given, the injected schedule perturbs the link/backend on the virtual
/// clock. Both `None` is the paper's plain unbuffered path.
#[allow(clippy::too_many_arguments)]
pub fn monitor_system_resilient(
    machine: &Machine,
    kb: &KnowledgeBase,
    ts: &Database,
    start_s: f64,
    duration_s: f64,
    freq_hz: f64,
    busy: &[(u32, f64)],
    obs: &Arc<Registry>,
    resilience: Option<ResilienceConfig>,
    fault: Option<FaultSchedule>,
) -> SamplingReport {
    let (mut pmcd, metrics) = configure_collectors(machine, kb, busy, obs);

    let mut shipper = Shipper::new(
        ts,
        LinkSpec::mbit_100(),
        1.0 / freq_hz,
        &[machine.key(), "scenario_a"],
    )
    .with_obs(obs.clone());
    if let Some(schedule) = fault {
        shipper = shipper.with_fault_schedule(schedule);
    }
    if let Some(cfg) = resilience {
        shipper = shipper.with_resilience(cfg);
    }
    let config = SamplingConfig::new(metrics, freq_hz, start_s, duration_s);
    SamplingLoop::run(&config, &mut pmcd, &mut shipper)
}

/// Configure the PCP collector stack from the KB: register the agents the
/// machine calls for and select the metrics some twin actually declares
/// as SWTelemetry. Shared by the plain, resilient, and replicated
/// monitoring paths so their collector behaviour is identical.
fn configure_collectors(
    machine: &Machine,
    kb: &KnowledgeBase,
    busy: &[(u32, f64)],
    obs: &Arc<Registry>,
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

/// [`monitor_system_resilient`] routed through the replication
/// coordinator: samples are quorum-written to `set` (one fault schedule
/// per replica, virtual-clock absolute), misses park as hinted handoffs,
/// and heartbeats drive hint replay, quarantine, and primary failover
/// every tick.
#[allow(clippy::too_many_arguments)]
pub fn monitor_system_replicated(
    machine: &Machine,
    kb: &KnowledgeBase,
    set: &ReplicaSet,
    start_s: f64,
    duration_s: f64,
    freq_hz: f64,
    busy: &[(u32, f64)],
    obs: &Arc<Registry>,
    schedules: Vec<FaultSchedule>,
) -> Result<ReplicatedOutcome, PmoveError> {
    let (mut pmcd, metrics) = configure_collectors(machine, kb, busy, obs);
    let mut coord = ReplShipper::new(set, schedules, &[machine.key(), "scenario_a", set.name()])?
        .with_obs(obs.clone());
    let config = SamplingConfig::new(metrics, freq_hz, start_s, duration_s);
    let report = run_replicated(&config, &mut pmcd, &mut coord);
    Ok(ReplicatedOutcome {
        report,
        healthy: coord.healthy_count(),
        primary: coord.primary(),
        degraded: coord.is_degraded(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::builder::build_kb;
    use crate::probe::ProbeReport;

    fn monitor_system(
        machine: &Machine,
        kb: &KnowledgeBase,
        ts: &Database,
        start_s: f64,
        duration_s: f64,
        freq_hz: f64,
    ) -> SamplingReport {
        monitor_system_resilient(
            machine,
            kb,
            ts,
            start_s,
            duration_s,
            freq_hz,
            &[],
            &Registry::disabled(),
            None,
            None,
        )
    }

    #[test]
    fn monitoring_populates_the_tsdb() {
        let machine = Machine::preset("icl").unwrap();
        let kb = build_kb(&ProbeReport::collect(&machine)).unwrap();
        let ts = Database::new("pmove");
        let report = monitor_system(&machine, &kb, &ts, 0.0, 10.0, 1.0);
        assert_eq!(report.ticks, 10);
        assert_eq!(report.transport.values_lost, 0);
        // Measurements exist with KB-declared names.
        let ms = ts.measurements();
        assert!(ms.contains(&"kernel_percpu_cpu_idle".to_string()));
        assert!(ms.contains(&"mem_numa_alloc_hit".to_string()));
        // Per-cpu measurement carries 16 fields.
        assert_eq!(ts.field_keys("kernel_percpu_cpu_idle").len(), 16);
        // Queryable through the normal query path.
        let r = ts
            .query("SELECT \"_cpu3\" FROM \"kernel_percpu_cpu_idle\"")
            .unwrap();
        assert_eq!(r.rows.len(), 10);
    }

    #[test]
    fn gpu_telemetry_joins_scenario_a_when_devices_attached() {
        let mut spec = pmove_hwsim::MachineSpec::csl();
        spec.gpus.push(pmove_hwsim::gpu::GpuSpec::gv100());
        let machine = Machine::new(spec);
        let kb = build_kb(&ProbeReport::collect(&machine)).unwrap();
        let ts = Database::new("pmove");
        monitor_system(&machine, &kb, &ts, 0.0, 10.0, 1.0);
        let ms = ts.measurements();
        assert!(ms.contains(&"nvidia_memused".to_string()), "{ms:?}");
        assert!(ms.contains(&"nvidia_power".to_string()));
        let r = ts.query("SELECT \"_gpu0\" FROM \"nvidia_power\"").unwrap();
        assert_eq!(r.rows.len(), 10);
        // Idle device: power in the idle band.
        assert!(r.rows.iter().all(|row| {
            let v = row.values["_gpu0"].unwrap();
            (30.0..80.0).contains(&v)
        }));
    }

    #[test]
    fn replicated_monitoring_matches_the_plain_path_bit_for_bit() {
        use pmove_tsdb::repl::ReplConfig;
        // The replicated coordinator with no faults must ingest exactly
        // the series the single-node shipper does: same collector stack,
        // same tick grid, bit-identical values on every replica.
        let machine = Machine::preset("icl").unwrap();
        let kb = build_kb(&ProbeReport::collect(&machine)).unwrap();
        let ts = Database::new("pmove");
        let plain = monitor_system(&machine, &kb, &ts, 0.0, 10.0, 1.0);

        let set = ReplicaSet::in_memory("pmove", ReplConfig::default()).unwrap();
        let schedules = vec![FaultSchedule::none(); set.len()];
        let out = monitor_system_replicated(
            &machine,
            &kb,
            &set,
            0.0,
            10.0,
            1.0,
            &[],
            &Registry::disabled(),
            schedules,
        )
        .unwrap();
        assert_eq!(out.report.ticks, plain.ticks);
        assert_eq!(out.report.transport.values_lost, 0);
        assert!(!out.degraded);
        assert!(set.converged());
        for m in ts.measurements() {
            let q = format!("SELECT * FROM \"{m}\"");
            let want = ts.query(&q).unwrap();
            for i in 0..set.len() {
                let got = set.replica(i).query(&q).unwrap();
                assert_eq!(got.rows, want.rows, "series {m} differs on replica {i}");
            }
        }
    }

    #[test]
    fn low_frequency_always_sampled_semantics() {
        // SWTelemetry is "always sampled with a low frequency": a 1 Hz run
        // over 60 s yields 60 ticks, no losses, no zeros.
        let machine = Machine::preset("csl").unwrap();
        let kb = build_kb(&ProbeReport::collect(&machine)).unwrap();
        let ts = Database::new("pmove");
        let report = monitor_system(&machine, &kb, &ts, 100.0, 60.0, 1.0);
        assert_eq!(report.ticks, 60);
        assert_eq!(report.transport.loss_plus_zero_pct(), 0.0);
    }
}
