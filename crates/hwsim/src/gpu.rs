//! GPU device models.
//!
//! §III-D of the paper integrates NVIDIA GPUs by probing with `nvidia-smi`
//! and `DeviceQuery`, sampling SW telemetry through NVML (`pcp-pmda-nvidia`)
//! and capturing HW telemetry by wrapping kernel launches with `ncu`. This
//! module supplies the device model, the NVML-like metric catalog, and
//! ncu-style kernel profile reports (Listing 4's source data).

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// Static GPU specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing model name.
    pub model: String,
    /// Device memory in MiB.
    pub memory_mb: u64,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Shared memory per SM in KiB.
    pub shared_mem_kb: u32,
    /// L2 cache in KiB.
    pub l2_kb: u32,
    /// NUMA node the device attaches to.
    pub numa_node: u32,
    /// PCI bus id.
    pub bus_id: String,
}

impl GpuSpec {
    /// The Quadro GV100 of Listing 4.
    pub fn gv100() -> Self {
        GpuSpec {
            model: "NVIDIA Quadro GV100".into(),
            memory_mb: 34359,
            sm_count: 80,
            shared_mem_kb: 96,
            l2_kb: 6144,
            numa_node: 0,
            bus_id: "0000:3b:00.0".into(),
        }
    }

    /// `nvidia-smi`-style probe record.
    pub(crate) fn smi_record(&self, index: u32) -> Value {
        json!({
            "index": index,
            "name": self.model,
            "memory.total": format!("{} MiB", self.memory_mb),
            "pci.bus_id": self.bus_id,
        })
    }

    /// `DeviceQuery`-style hardware record.
    pub(crate) fn device_query(&self) -> Value {
        json!({
            "multiProcessorCount": self.sm_count,
            "sharedMemPerMultiprocessor": self.shared_mem_kb * 1024,
            "l2CacheSize": self.l2_kb * 1024,
            "totalGlobalMem": self.memory_mb * 1024 * 1024,
        })
    }
}

/// NVML software-telemetry metrics (`pcp-pmda-nvidia` samples every metric
/// NVML supports; this is the subset P-MoVE's KB encodes by default).
pub fn nvml_metrics() -> Vec<(&'static str, &'static str)> {
    vec![
        ("nvidia.memused", "Device memory in use"),
        ("nvidia.memtotal", "Total device memory"),
        ("nvidia.gpuactive", "GPU utilization percentage"),
        ("nvidia.memactive", "Memory controller utilization"),
        ("nvidia.temp", "GPU temperature"),
        ("nvidia.power", "Board power draw"),
        ("nvidia.clock.sm", "SM clock frequency"),
        ("nvidia.clock.mem", "Memory clock frequency"),
        ("nvidia.procs", "Processes with device contexts"),
    ]
}

/// ncu hardware metrics captured around wrapped kernel launches.
pub(crate) fn ncu_metrics() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "gpu__compute_memory_access_throughput",
            "Compute Memory Pipeline: throughput of internal activity within caches and DRAM",
        ),
        ("sm__throughput", "SM throughput relative to peak"),
        ("dram__bytes_read", "Bytes read from device memory"),
        ("dram__bytes_write", "Bytes written to device memory"),
        ("sm__inst_executed", "Instructions executed"),
        (
            "sm__sass_thread_inst_executed_op_dfma_pred_on",
            "Double-precision FMA thread instructions",
        ),
        ("l1tex__t_sector_hit_rate", "L1/TEX sector hit rate"),
        ("lts__t_sector_hit_rate", "L2 sector hit rate"),
    ]
}

/// A GPU kernel's operation profile, the ncu-wrapping input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuKernelProfile {
    /// Kernel symbol name.
    pub name: String,
    /// Double-precision FLOPs.
    pub flops_f64: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Grid × block thread count.
    pub threads_launched: u64,
}

/// An ncu-style report produced after a wrapped kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NcuReport {
    /// Kernel name.
    pub kernel: String,
    /// Duration in microseconds.
    pub duration_us: f64,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
}

/// Profile a GPU kernel on a device: a simple roofline over SM FLOP
/// throughput and DRAM bandwidth, reported ncu-style.
pub fn profile_kernel(gpu: &GpuSpec, profile: &GpuKernelProfile) -> NcuReport {
    // GV100-class: ~7.4 TF/s f64, ~870 GB/s HBM2.
    let peak_flops = gpu.sm_count as f64 * 64.0 * 2.0 * 1.4e9 * 0.5; // DP units at ~1.4 GHz
    let peak_bw = 870e9 * (gpu.sm_count as f64 / 80.0).min(1.5);
    let t_compute = profile.flops_f64 as f64 / peak_flops;
    let bytes = (profile.dram_read_bytes + profile.dram_write_bytes) as f64;
    let t_mem = bytes / peak_bw;
    let duration = t_compute.max(t_mem) * 1.05 + 3e-6;
    let mem_throughput_pct = (t_mem / duration * 100.0).min(100.0);
    let sm_throughput_pct = (t_compute / duration * 100.0).min(100.0);
    NcuReport {
        kernel: profile.name.clone(),
        duration_us: duration * 1e6,
        metrics: vec![
            (
                "gpu__compute_memory_access_throughput".into(),
                mem_throughput_pct,
            ),
            ("sm__throughput".into(), sm_throughput_pct),
            ("dram__bytes_read".into(), profile.dram_read_bytes as f64),
            ("dram__bytes_write".into(), profile.dram_write_bytes as f64),
            (
                "sm__sass_thread_inst_executed_op_dfma_pred_on".into(),
                profile.flops_f64 as f64 / 2.0,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gv100_matches_listing4() {
        let g = GpuSpec::gv100();
        assert_eq!(g.model, "NVIDIA Quadro GV100");
        assert_eq!(g.memory_mb, 34359);
        assert_eq!(g.numa_node, 0);
        let smi = g.smi_record(0);
        assert_eq!(smi["memory.total"], json!("34359 MiB"));
        let dq = g.device_query();
        assert_eq!(dq["multiProcessorCount"], json!(80));
    }

    #[test]
    fn metric_catalogs_nonempty_and_contain_listing4_metric() {
        assert!(nvml_metrics().iter().any(|(n, _)| *n == "nvidia.memused"));
        assert!(ncu_metrics()
            .iter()
            .any(|(n, _)| *n == "gpu__compute_memory_access_throughput"));
    }

    #[test]
    fn memory_bound_kernel_reports_high_mem_throughput() {
        let g = GpuSpec::gv100();
        let k = GpuKernelProfile {
            name: "stream_triad".into(),
            flops_f64: 1 << 28,
            dram_read_bytes: 6 << 30,
            dram_write_bytes: 3 << 30,
            threads_launched: 1 << 20,
        };
        let r = profile_kernel(&g, &k);
        let mem = r
            .metrics
            .iter()
            .find(|(n, _)| n == "gpu__compute_memory_access_throughput")
            .unwrap()
            .1;
        let sm = r
            .metrics
            .iter()
            .find(|(n, _)| n == "sm__throughput")
            .unwrap()
            .1;
        assert!(mem > 80.0, "mem {mem}");
        assert!(sm < 20.0, "sm {sm}");
        assert!(r.duration_us > 0.0);
    }

    #[test]
    fn compute_bound_kernel_reports_high_sm_throughput() {
        let g = GpuSpec::gv100();
        let k = GpuKernelProfile {
            name: "dgemm".into(),
            flops_f64: 1 << 40,
            dram_read_bytes: 1 << 28,
            dram_write_bytes: 1 << 26,
            threads_launched: 1 << 20,
        };
        let r = profile_kernel(&g, &k);
        let sm = r
            .metrics
            .iter()
            .find(|(n, _)| n == "sm__throughput")
            .unwrap()
            .1;
        assert!(sm > 80.0, "sm {sm}");
    }
}
