//! `pcp-pmda-nvidia`: GPU software telemetry through NVML (§III-D).
//!
//! "To address this, we used pcp-pmda-nvidia for collecting SWTelemetry,
//! essentially capturing every metric supported by NVML." The agent
//! serves the NVML metric catalog for every attached device: idle
//! devices with deterministic utilization and temperature waves.

use crate::agent::{Agent, Sample};
use crate::metric::{InstanceDomain, MetricDesc};
use pmove_hwsim::gpu::{nvml_metrics, GpuSpec};
use pmove_hwsim::noise::stable_hash;

/// The NVIDIA agent.
pub struct NvidiaAgent {
    devices: Vec<GpuSpec>,
    seed: u64,
}

impl NvidiaAgent {
    /// Agent for a set of devices.
    pub fn new(devices: Vec<GpuSpec>) -> Self {
        let seed = stable_hash(&["nvidia", &devices.len().to_string()]);
        NvidiaAgent { devices, seed }
    }

    fn wave(&self, t: f64, channel: u64) -> f64 {
        let p = ((self.seed ^ channel.wrapping_mul(0x9E37_79B9)) % 1000) as f64 / 1000.0;
        (0.5 + 0.45 * (0.2 * t + p * std::f64::consts::TAU).sin()).clamp(0.0, 1.0)
    }
}

impl Agent for NvidiaAgent {
    fn name(&self) -> &str {
        "pmdanvidia"
    }

    fn metrics(&self) -> Vec<MetricDesc> {
        nvml_metrics()
            .iter()
            .map(|(name, desc)| MetricDesc::new(*name, InstanceDomain::PerGpu, *desc))
            .collect()
    }

    fn sample(&mut self, metric: &str, _t_prev: f64, t_now: f64) -> Vec<Sample> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, dev)| {
                let v = match metric {
                    "nvidia.memused" => dev.memory_mb as f64 * 1024.0 * 1024.0 * 0.03,
                    "nvidia.memtotal" => dev.memory_mb as f64 * 1024.0 * 1024.0,
                    "nvidia.gpuactive" => 100.0 * (0.02 * self.wave(t_now, i as u64)).min(1.0),
                    "nvidia.memactive" => 100.0 * 0.01,
                    "nvidia.temp" => 35.0 + 3.0 * self.wave(t_now, 7 + i as u64),
                    "nvidia.power" => 40.0,
                    "nvidia.clock.sm" => 1_400.0,
                    "nvidia.clock.mem" => 850.0,
                    "nvidia.procs" => 0.0,
                    _ => return (format!("_gpu{i}"), f64::NAN),
                };
                (format!("_gpu{i}"), v)
            })
            .filter(|(_, v)| !v.is_nan())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent() -> NvidiaAgent {
        NvidiaAgent::new(vec![GpuSpec::gv100(), GpuSpec::gv100()])
    }

    #[test]
    fn serves_full_nvml_catalog_per_device() {
        let mut a = agent();
        assert_eq!(a.metrics().len(), nvml_metrics().len());
        let s = a.sample("nvidia.memtotal", 0.0, 1.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, "_gpu0");
        assert_eq!(s[0].1, 34359.0 * 1024.0 * 1024.0);
        assert!(a.sample("nvidia.bogus", 0.0, 1.0).is_empty());
    }

    #[test]
    fn idle_device_is_quiet() {
        let mut a = agent();
        let util = a.sample("nvidia.gpuactive", 0.0, 5.0);
        assert!(util.iter().all(|(_, v)| *v < 3.0), "{util:?}");
        let power = a.sample("nvidia.power", 0.0, 5.0);
        assert!(power.iter().all(|(_, v)| (35.0..60.0).contains(v)));
    }
}
