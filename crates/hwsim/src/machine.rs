//! Machine specifications and topology construction.
//!
//! The four presets reproduce Table II of the paper. A [`MachineSpec`] is
//! pure data; [`Machine`] couples it with the built component topology and
//! derived performance characteristics (peak FLOPs, per-level bandwidths)
//! used by the execution model and the CARM roofs.

use crate::disk::DiskSpec;
use crate::gpu::GpuSpec;
use crate::topology::{ComponentKind, Topology};
use crate::vendor::{IsaExt, Microarch};
use serde::{Deserialize, Serialize};
use serde_json::json;

/// Static description of a target system (Table II row).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Short key (`skx`, `icl`, `csl`, `zen3`).
    pub key: String,
    /// Operating system string.
    pub os: String,
    /// Kernel version string.
    pub kernel: String,
    /// CPU model string.
    pub cpu_model: String,
    /// Microarchitecture.
    pub arch: Microarch,
    /// Socket count.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Hardware threads per core (SMT).
    pub threads_per_core: u32,
    /// Nominal (max turbo) frequency in GHz.
    pub freq_ghz: f64,
    /// Total memory in GiB.
    pub mem_gb: u64,
    /// Memory frequency in MT/s.
    pub mem_freq_mhz: u32,
    /// Memory channels per socket.
    pub mem_channels: u32,
    /// L1 data cache per core, KiB.
    pub l1_kb: u32,
    /// L2 cache per core, KiB.
    pub l2_kb: u32,
    /// L3 cache per socket, KiB.
    pub l3_kb: u32,
    /// Environment string (e.g. `pcp 5.3.6-1`).
    pub env: String,
    /// Attached disks.
    pub disks: Vec<DiskSpec>,
    /// NIC bandwidth to the monitoring host, in Mbit/s.
    pub nic_mbit: u32,
    /// Attached GPUs.
    pub gpus: Vec<GpuSpec>,
}

impl MachineSpec {
    /// `skx`: 2× Intel Xeon Gold 6152 (44c/88t), 1 TB DDR4-2666, 4 disks.
    pub fn skx() -> Self {
        MachineSpec {
            key: "skx".into(),
            os: "Ubuntu 20.04.3 LTS x86_64".into(),
            kernel: "5.15.0-73-generic".into(),
            cpu_model: "Intel Xeon Gold 6152 @3.7GHz x2".into(),
            arch: Microarch::SkylakeX,
            sockets: 2,
            cores_per_socket: 22,
            threads_per_core: 2,
            freq_ghz: 3.7,
            mem_gb: 1024,
            mem_freq_mhz: 2666,
            mem_channels: 6,
            l1_kb: 32,
            l2_kb: 1024,
            l3_kb: 30976,
            env: "pcp 5.3.6-1".into(),
            disks: (0..4)
                .map(|i| DiskSpec::sata(format!("sd{}", (b'a' + i) as char)))
                .collect(),
            nic_mbit: 100,
            gpus: Vec::new(),
        }
    }

    /// `icl`: Intel i9-11900K (8c/16t), 64 GB DDR4-2133.
    pub fn icl() -> Self {
        MachineSpec {
            key: "icl".into(),
            os: "Linux Mint 21.1 x86_64".into(),
            kernel: "5.15.0-56-generic".into(),
            cpu_model: "Intel i9-11900K @5.1GHz".into(),
            arch: Microarch::IceLake,
            sockets: 1,
            cores_per_socket: 8,
            threads_per_core: 2,
            freq_ghz: 5.1,
            mem_gb: 64,
            mem_freq_mhz: 2133,
            mem_channels: 2,
            l1_kb: 48,
            l2_kb: 512,
            l3_kb: 16384,
            env: "pcp 5.3.6-1".into(),
            disks: vec![DiskSpec::nvme("nvme0n1")],
            nic_mbit: 100,
            gpus: Vec::new(),
        }
    }

    /// `csl`: Intel Xeon Gold 6258R (28c/56t), 64 GB DDR4-3200.
    pub fn csl() -> Self {
        MachineSpec {
            key: "csl".into(),
            os: "CentOS Linux release 7.9.2009 (Core) x86_64".into(),
            kernel: "3.10.0-1160.90.1.el7.x86_64".into(),
            cpu_model: "Intel Xeon Gold 6258R @2.7GHz".into(),
            arch: Microarch::CascadeLake,
            sockets: 1,
            cores_per_socket: 28,
            threads_per_core: 2,
            freq_ghz: 2.7,
            mem_gb: 64,
            mem_freq_mhz: 3200,
            mem_channels: 6,
            l1_kb: 32,
            l2_kb: 1024,
            l3_kb: 39424,
            env: "pcp 6.0.1-1".into(),
            disks: vec![DiskSpec::sata("sda")],
            nic_mbit: 100,
            gpus: Vec::new(),
        }
    }

    /// `zen3`: AMD EPYC 7313 (16c/32t), 128 GB DDR4-2933.
    pub fn zen3() -> Self {
        MachineSpec {
            key: "zen3".into(),
            os: "Ubuntu 22.04.3 LTS x86_64".into(),
            kernel: "6.2.0-33-generic".into(),
            cpu_model: "AMD EPYC 7313 @3GHz".into(),
            arch: Microarch::Zen3,
            sockets: 1,
            cores_per_socket: 16,
            threads_per_core: 2,
            freq_ghz: 3.0,
            mem_gb: 128,
            mem_freq_mhz: 2933,
            mem_channels: 8,
            l1_kb: 32,
            l2_kb: 512,
            l3_kb: 131072,
            env: "pcp 6.0.3-1".into(),
            disks: vec![DiskSpec::sata("sda")],
            nic_mbit: 100,
            gpus: Vec::new(),
        }
    }

    /// All four Table II presets.
    fn presets() -> Vec<MachineSpec> {
        vec![Self::skx(), Self::icl(), Self::csl(), Self::zen3()]
    }

    /// Look up a preset by key.
    pub fn preset(key: &str) -> Option<MachineSpec> {
        Self::presets().into_iter().find(|m| m.key == key)
    }

    /// Total hardware threads.
    pub fn total_threads(&self) -> u32 {
        self.sockets * self.cores_per_socket * self.threads_per_core
    }

    /// Total physical cores.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Theoretical DRAM bandwidth per socket in bytes/s
    /// (channels × MT/s × 8 bytes).
    fn dram_bw_per_socket(&self) -> f64 {
        self.mem_channels as f64 * self.mem_freq_mhz as f64 * 1e6 * 8.0
    }

    /// Sustainable (measured-like) DRAM bandwidth of the whole machine:
    /// ~80 % of theoretical, the typical STREAM efficiency.
    pub fn dram_bw_total(&self) -> f64 {
        0.8 * self.dram_bw_per_socket() * self.sockets as f64
    }

    /// Peak double-precision GFLOP/s for an ISA extension and thread count
    /// (threads beyond the core count share FMA pipes and add nothing).
    pub fn peak_gflops_f64(&self, isa: IsaExt, threads: u32) -> f64 {
        let cores_used = threads.min(self.total_cores()) as f64;
        self.arch.flops_per_cycle_f64(isa) * self.freq_ghz * cores_used
    }

    /// Per-core cache bandwidth in bytes per cycle for a level (1..=3).
    /// Values follow the usual sustained per-core figures for these
    /// microarchitectures.
    fn cache_bytes_per_cycle(&self, level: u8) -> f64 {
        match (self.arch, level) {
            (Microarch::Zen3, 1) => 64.0,
            (Microarch::Zen3, 2) => 32.0,
            (Microarch::Zen3, 3) => 16.0,
            (_, 1) => 128.0,
            (_, 2) => 64.0,
            (_, 3) => 16.0,
            _ => panic!("cache level must be 1..=3"),
        }
    }

    /// Sustainable bandwidth of a memory level in bytes/s when `threads`
    /// hardware threads stream from it. Level 4 denotes DRAM.
    pub fn level_bandwidth(&self, level: u8, threads: u32) -> f64 {
        let cycle_hz = self.freq_ghz * 1e9;
        match level {
            1..=2 => {
                // Private caches scale with cores used.
                let cores = threads.min(self.total_cores()) as f64;
                self.cache_bytes_per_cycle(level) * cycle_hz * cores
            }
            3 => {
                // Shared L3: scales with cores but saturates per socket.
                let cores = threads.min(self.total_cores()) as f64;
                let per_core = self.cache_bytes_per_cycle(3) * cycle_hz;
                let socket_cap = per_core * 12.0 * self.sockets as f64;
                (per_core * cores).min(socket_cap)
            }
            4 => {
                // DRAM: a handful of cores saturate a socket.
                let cores = threads.min(self.total_cores()) as f64;
                let saturating = 6.0 * self.sockets as f64;
                self.dram_bw_total() * (cores / saturating).min(1.0)
            }
            _ => panic!("memory level must be 1..=4"),
        }
    }

    /// Build the full component topology for this spec.
    fn build_topology(&self) -> Topology {
        let mut t = Topology::new(self.key.clone());
        let mut cpu_index = 0u32;
        for s in 0..self.sockets {
            let numa = t.add(t.root(), ComponentKind::NumaNode, format!("node{s}"));
            let socket = t.add(numa, ComponentKind::Socket, format!("socket{s}"));
            t.set_attr(socket, "model", json!(self.cpu_model));
            t.set_attr(socket, "arch", json!(self.arch.to_string()));
            t.set_attr(socket, "freq_ghz", json!(self.freq_ghz));
            let l3 = t.add(socket, ComponentKind::Cache(3), format!("l3cache{s}"));
            t.set_attr(l3, "size_kb", json!(self.l3_kb));
            for c in 0..self.cores_per_socket {
                let core_idx = s * self.cores_per_socket + c;
                let core = t.add(socket, ComponentKind::Core, format!("core{core_idx}"));
                let l1 = t.add(core, ComponentKind::Cache(1), format!("l1cache{core_idx}"));
                t.set_attr(l1, "size_kb", json!(self.l1_kb));
                let l2 = t.add(core, ComponentKind::Cache(2), format!("l2cache{core_idx}"));
                t.set_attr(l2, "size_kb", json!(self.l2_kb));
                for _ in 0..self.threads_per_core {
                    let th = t.add(core, ComponentKind::Thread, format!("cpu{cpu_index}"));
                    t.set_attr(th, "os_index", json!(cpu_index));
                    t.set_attr(th, "numa", json!(s));
                    cpu_index += 1;
                }
            }
            let mem = t.add(numa, ComponentKind::Memory, format!("mem{s}"));
            t.set_attr(mem, "size_gb", json!(self.mem_gb / self.sockets as u64));
            t.set_attr(mem, "freq_mhz", json!(self.mem_freq_mhz));
        }
        for d in &self.disks {
            let disk = t.add(t.root(), ComponentKind::Disk, d.name.clone());
            t.set_attr(disk, "rotational", json!(d.rotational));
        }
        let nic = t.add(t.root(), ComponentKind::Nic, "eth0");
        t.set_attr(nic, "mbit", json!(self.nic_mbit));
        for (i, g) in self.gpus.iter().enumerate() {
            let gpu = t.add(t.root(), ComponentKind::Gpu, format!("gpu{i}"));
            t.set_attr(gpu, "model", json!(g.model));
            t.set_attr(gpu, "memory_mb", json!(g.memory_mb));
            t.set_attr(gpu, "numa", json!(g.numa_node));
        }
        t
    }
}

/// A machine: spec + built topology.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The static specification.
    pub spec: MachineSpec,
    /// The component tree.
    pub topology: Topology,
}

impl Machine {
    /// Build a machine from a spec.
    pub fn new(spec: MachineSpec) -> Self {
        let topology = spec.build_topology();
        Machine { spec, topology }
    }

    /// Preset machine by key (`skx`, `icl`, `csl`, `zen3`).
    pub fn preset(key: &str) -> Option<Machine> {
        MachineSpec::preset(key).map(Machine::new)
    }

    /// Short key.
    pub fn key(&self) -> &str {
        &self.spec.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table2() {
        let skx = MachineSpec::skx();
        assert_eq!(skx.total_cores(), 44);
        assert_eq!(skx.total_threads(), 88);
        assert_eq!(skx.mem_gb, 1024);
        assert_eq!(skx.disks.len(), 4);

        let icl = MachineSpec::icl();
        assert_eq!(icl.total_threads(), 16);
        assert_eq!(icl.freq_ghz, 5.1);

        let csl = MachineSpec::csl();
        assert_eq!(csl.total_threads(), 56);
        assert_eq!(csl.arch, Microarch::CascadeLake);

        let zen3 = MachineSpec::zen3();
        assert_eq!(zen3.total_threads(), 32);
        assert_eq!(zen3.arch.vendor(), crate::vendor::Vendor::Amd);
    }

    #[test]
    fn preset_lookup() {
        assert!(MachineSpec::preset("skx").is_some());
        assert!(MachineSpec::preset("nope").is_none());
        assert_eq!(MachineSpec::presets().len(), 4);
    }

    #[test]
    fn topology_shape() {
        let m = Machine::preset("skx").unwrap();
        let t = &m.topology;
        assert_eq!(t.of_kind(ComponentKind::Socket).len(), 2);
        assert_eq!(t.of_kind(ComponentKind::Core).len(), 44);
        assert_eq!(t.threads().len(), 88);
        assert_eq!(t.of_kind(ComponentKind::Cache(3)).len(), 2);
        assert_eq!(t.of_kind(ComponentKind::Disk).len(), 4);
        assert_eq!(t.of_kind(ComponentKind::Nic).len(), 1);
        // Thread names are cpu0..cpu87 in OS order.
        assert_eq!(t.threads()[0].name, "cpu0");
        assert_eq!(t.threads()[87].name, "cpu87");
    }

    #[test]
    fn derived_bandwidths_sane() {
        let csl = MachineSpec::csl();
        // 6 ch * 3200 MT/s * 8 B ≈ 153.6 GB/s theoretical/socket.
        assert!((csl.dram_bw_per_socket() - 153.6e9).abs() < 1e9);
        assert!(csl.dram_bw_total() < csl.dram_bw_per_socket());
        // L1 bandwidth exceeds L2 exceeds L3 exceeds DRAM for same threads.
        let t = 28;
        assert!(csl.level_bandwidth(1, t) > csl.level_bandwidth(2, t));
        assert!(csl.level_bandwidth(2, t) > csl.level_bandwidth(3, t));
        assert!(csl.level_bandwidth(3, t) > csl.level_bandwidth(4, t));
    }

    #[test]
    fn dram_saturates_with_cores() {
        let csl = MachineSpec::csl();
        let bw6 = csl.level_bandwidth(4, 6);
        let bw28 = csl.level_bandwidth(4, 28);
        assert_eq!(bw6, bw28); // saturated at 6 cores
        assert!(csl.level_bandwidth(4, 1) < bw6);
    }

    #[test]
    fn peak_flops_clamps_at_core_count() {
        let icl = MachineSpec::icl();
        let p8 = icl.peak_gflops_f64(IsaExt::Avx512, 8);
        let p16 = icl.peak_gflops_f64(IsaExt::Avx512, 16);
        assert_eq!(p8, p16); // SMT threads add no FMA throughput
                             // 8 cores * 5.1 GHz * 32 flops/cyc = 1305.6 GF/s
        assert!((p8 - 1305.6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "memory level")]
    fn bad_level_panics() {
        MachineSpec::icl().level_bandwidth(9, 1);
    }
}
