//! `pcp-pmda-nvidia`: GPU software telemetry through NVML (§III-D).
//!
//! "To address this, we used pcp-pmda-nvidia for collecting SWTelemetry,
//! essentially capturing every metric supported by NVML." The agent
//! serves the NVML metric catalog for every attached device, with
//! deterministic utilization waves plus the load imposed by registered
//! GPU kernel executions.

use crate::agent::{Agent, Sample};
use crate::metric::{InstanceDomain, MetricDesc};
use pmove_hwsim::gpu::{nvml_metrics, GpuSpec};
use pmove_hwsim::noise::stable_hash;

/// A GPU kernel burst visible to the NVML metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuActivity {
    /// Device index.
    pub device: usize,
    /// Start time (virtual seconds).
    pub start_s: f64,
    /// End time.
    pub end_s: f64,
    /// GPU utilization fraction during the burst.
    pub sm_util: f64,
    /// Device memory used by the burst, bytes.
    pub mem_bytes: f64,
}

/// The NVIDIA agent.
pub struct NvidiaAgent {
    devices: Vec<GpuSpec>,
    activities: Vec<GpuActivity>,
    seed: u64,
}

impl NvidiaAgent {
    /// Agent for a set of devices.
    pub fn new(devices: Vec<GpuSpec>) -> Self {
        let seed = stable_hash(&["nvidia", &devices.len().to_string()]);
        NvidiaAgent {
            devices,
            activities: Vec::new(),
            seed,
        }
    }

    /// Register a kernel burst (the wrapper-script flow of §III-D).
    pub fn record_activity(&mut self, activity: GpuActivity) {
        self.activities.push(activity);
    }

    fn wave(&self, t: f64, channel: u64) -> f64 {
        let p = ((self.seed ^ channel.wrapping_mul(0x9E37_79B9)) % 1000) as f64 / 1000.0;
        (0.5 + 0.45 * (0.2 * t + p * std::f64::consts::TAU).sin()).clamp(0.0, 1.0)
    }

    fn active_load(&self, device: usize, t: f64) -> (f64, f64) {
        self.activities
            .iter()
            .filter(|a| a.device == device && a.start_s <= t && t < a.end_s)
            .fold((0.0, 0.0), |(u, m), a| {
                ((u + a.sm_util).min(1.0), m + a.mem_bytes)
            })
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
                let (kernel_util, kernel_mem) = self.active_load(i, t_now);
                let idle_mem = dev.memory_mb as f64 * 1024.0 * 1024.0 * 0.03;
                let v = match metric {
                    "nvidia.memused" => idle_mem + kernel_mem,
                    "nvidia.memtotal" => dev.memory_mb as f64 * 1024.0 * 1024.0,
                    "nvidia.gpuactive" => {
                        100.0 * (0.02 * self.wave(t_now, i as u64) + kernel_util).min(1.0)
                    }
                    "nvidia.memactive" => 100.0 * (0.01 + 0.8 * kernel_util).min(1.0),
                    "nvidia.temp" => {
                        35.0 + 40.0 * kernel_util + 3.0 * self.wave(t_now, 7 + i as u64)
                    }
                    "nvidia.power" => 40.0 + 210.0 * kernel_util,
                    "nvidia.clock.sm" => 1_400.0 - 100.0 * kernel_util,
                    "nvidia.clock.mem" => 850.0,
                    "nvidia.procs" => self
                        .activities
                        .iter()
                        .filter(|a| a.device == i && a.start_s <= t_now && t_now < a.end_s)
                        .count() as f64,
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

    #[test]
    fn kernel_activity_shows_up_in_every_metric() {
        let mut a = agent();
        a.record_activity(GpuActivity {
            device: 0,
            start_s: 10.0,
            end_s: 20.0,
            sm_util: 0.9,
            mem_bytes: 8e9,
        });
        // During the burst on gpu0 only.
        let util = a.sample("nvidia.gpuactive", 14.0, 15.0);
        assert!(util[0].1 > 85.0, "{util:?}");
        assert!(util[1].1 < 5.0);
        let power = a.sample("nvidia.power", 14.0, 15.0);
        assert!(power[0].1 > 200.0);
        let mem = a.sample("nvidia.memused", 14.0, 15.0);
        assert!(mem[0].1 > 8e9);
        let temp = a.sample("nvidia.temp", 14.0, 15.0);
        assert!(temp[0].1 > 65.0);
        let procs = a.sample("nvidia.procs", 14.0, 15.0);
        assert_eq!(procs[0].1, 1.0);
        // After the burst everything relaxes.
        let util = a.sample("nvidia.gpuactive", 24.0, 25.0);
        assert!(util[0].1 < 5.0);
    }

    #[test]
    fn utilization_saturates_at_100() {
        let mut a = agent();
        for _ in 0..3 {
            a.record_activity(GpuActivity {
                device: 0,
                start_s: 0.0,
                end_s: 10.0,
                sm_util: 0.6,
                mem_bytes: 1e9,
            });
        }
        let util = a.sample("nvidia.gpuactive", 0.0, 5.0);
        assert!(util[0].1 <= 100.0);
    }
}
