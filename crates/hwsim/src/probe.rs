//! The probing module output.
//!
//! Step ① of the paper's workflow copies a probing module to the target,
//! which runs `lshw`, `likwid-topology`, `cpuid`, `/sys/block`, SMART,
//! `libpfm4`, `nvidia-smi` and `DeviceQuery`, and returns one JSON file with
//! everything the KB generator needs. [`probe_machine`] produces that file
//! for a simulated machine.

use crate::gpu::{ncu_metrics, nvml_metrics};
use crate::machine::Machine;
use crate::pmu::{Domain, EventCatalog};
use serde_json::{json, Value};

/// Software (PCP-style) metrics every Linux target exposes, with their
/// instance domains. These are what `pmdalinux` reports in Scenario A.
fn linux_sw_metrics() -> Vec<(&'static str, &'static str, &'static str)> {
    // (metric name, instance domain, description)
    vec![
        ("kernel.all.load", "singular", "1-minute load average"),
        ("kernel.all.nprocs", "singular", "number of processes"),
        ("kernel.all.intr", "singular", "interrupts per second"),
        (
            "kernel.all.pswitch",
            "singular",
            "context switches per second",
        ),
        ("kernel.percpu.cpu.idle", "per-cpu", "per-CPU idle time"),
        ("kernel.percpu.cpu.user", "per-cpu", "per-CPU user time"),
        ("kernel.percpu.cpu.sys", "per-cpu", "per-CPU system time"),
        ("mem.util.used", "singular", "used memory"),
        ("mem.util.free", "singular", "free memory"),
        (
            "mem.numa.alloc_hit",
            "per-node",
            "NUMA local allocation hits",
        ),
        ("mem.numa.alloc_miss", "per-node", "NUMA remote allocations"),
        (
            "disk.dev.write_bytes",
            "per-disk",
            "bytes written per device",
        ),
        ("disk.dev.read_bytes", "per-disk", "bytes read per device"),
        (
            "network.interface.out.bytes",
            "per-nic",
            "bytes transmitted",
        ),
        ("network.interface.in.bytes", "per-nic", "bytes received"),
        ("proc.psinfo.utime", "per-process", "per-process user time"),
        (
            "proc.psinfo.stime",
            "per-process",
            "per-process system time",
        ),
        ("proc.psinfo.rss", "per-process", "per-process resident set"),
    ]
}

/// Produce the full probe report for a machine — the JSON document that is
/// copied back to the host in step ② and fed to the KB generator.
pub fn probe_machine(machine: &Machine) -> Value {
    let spec = &machine.spec;
    let catalog = EventCatalog::for_arch(spec.arch);

    // lshw-style system section.
    let system = json!({
        "hostname": spec.key,
        "os": spec.os,
        "kernel": spec.kernel,
        "vendor": spec.arch.vendor().to_string(),
        "env": spec.env,
    });

    // likwid-topology / cpuid style CPU section.
    let cpu = json!({
        "model": spec.cpu_model,
        "arch": spec.arch.to_string(),
        "pmu_name": spec.arch.pmu_name(),
        "sockets": spec.sockets,
        "cores_per_socket": spec.cores_per_socket,
        "threads_per_core": spec.threads_per_core,
        "total_threads": spec.total_threads(),
        "freq_ghz": spec.freq_ghz,
        "isa_extensions": spec.arch.isa_extensions().iter().map(|i| i.label()).collect::<Vec<_>>(),
        "caches": {
            "l1_kb": spec.l1_kb,
            "l2_kb": spec.l2_kb,
            "l3_kb": spec.l3_kb,
            "line_bytes": 64,
        },
    });

    let memory = json!({
        "total_gb": spec.mem_gb,
        "freq_mhz": spec.mem_freq_mhz,
        "channels_per_socket": spec.mem_channels,
        "numa_nodes": spec.sockets,
    });

    // /sys/block + SMART style disk section.
    let disks: Vec<Value> = spec
        .disks
        .iter()
        .map(|d| {
            json!({
                "name": d.name,
                "rotational": d.rotational,
                "write_bps_512": d.write_bps_512,
                "write_bps_8k": d.write_bps_8k,
            })
        })
        .collect();

    // libpfm4-style PMU event listing.
    let pmu_events: Vec<Value> = catalog
        .events()
        .iter()
        .map(|e| {
            json!({
                "name": e.name,
                "description": e.description,
                "per_package": e.domain == Domain::PerPackage,
            })
        })
        .collect();

    // Full component tree (ids, kinds, parents) so the KB can mirror it.
    let components: Vec<Value> = machine
        .topology
        .iter()
        .map(|c| {
            json!({
                "id": c.id.0,
                "kind": c.kind.label(),
                "name": c.name,
                "parent": c.parent.map(|p| p.0),
                "attrs": c.attrs,
            })
        })
        .collect();

    // nvidia-smi / DeviceQuery / NVML / ncu sections when GPUs exist.
    let gpus: Vec<Value> = spec
        .gpus
        .iter()
        .enumerate()
        .map(|(i, g)| {
            json!({
                "smi": g.smi_record(i as u32),
                "device_query": g.device_query(),
                "numa_node": g.numa_node,
                "nvml_metrics": nvml_metrics()
                    .iter()
                    .map(|(n, d)| json!({"name": n, "description": d}))
                    .collect::<Vec<_>>(),
                "ncu_metrics": ncu_metrics()
                    .iter()
                    .map(|(n, d)| json!({"name": n, "description": d}))
                    .collect::<Vec<_>>(),
            })
        })
        .collect();

    let sw_metrics: Vec<Value> = linux_sw_metrics()
        .iter()
        .map(|(n, dom, d)| json!({"name": n, "indom": dom, "description": d}))
        .collect();

    json!({
        "probe_version": "1.0",
        "system": system,
        "cpu": cpu,
        "memory": memory,
        "disks": disks,
        "network": {"nic": "eth0", "mbit": spec.nic_mbit},
        "pmu_events": pmu_events,
        "sw_metrics": sw_metrics,
        "components": components,
        "gpus": gpus,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuSpec;
    use crate::machine::MachineSpec;

    #[test]
    fn report_covers_all_sections() {
        let m = Machine::preset("csl").unwrap();
        let r = probe_machine(&m);
        assert_eq!(r["system"]["hostname"], json!("csl"));
        assert_eq!(r["cpu"]["total_threads"], json!(56));
        assert_eq!(r["cpu"]["pmu_name"], json!("csl"));
        assert!(r["pmu_events"].as_array().unwrap().len() > 8);
        assert!(r["sw_metrics"].as_array().unwrap().len() >= 15);
        assert_eq!(
            r["components"].as_array().unwrap().len(),
            m.topology.iter().count()
        );
        assert!(r["gpus"].as_array().unwrap().is_empty());
    }

    #[test]
    fn component_records_preserve_tree() {
        let m = Machine::preset("icl").unwrap();
        let r = probe_machine(&m);
        let comps = r["components"].as_array().unwrap();
        // Root has no parent; every other record's parent is a valid id.
        assert_eq!(comps[0]["parent"], Value::Null);
        for c in &comps[1..] {
            let parent = c["parent"].as_u64().unwrap();
            assert!(parent < comps.len() as u64);
        }
        let threads = comps
            .iter()
            .filter(|c| c["kind"] == json!("thread"))
            .count();
        assert_eq!(threads, 16);
    }

    #[test]
    fn gpu_section_present_when_attached() {
        let mut spec = MachineSpec::csl();
        spec.gpus.push(GpuSpec::gv100());
        let m = Machine::new(spec);
        let r = probe_machine(&m);
        let gpus = r["gpus"].as_array().unwrap();
        assert_eq!(gpus.len(), 1);
        assert_eq!(gpus[0]["smi"]["name"], json!("NVIDIA Quadro GV100"));
        assert!(gpus[0]["nvml_metrics"].as_array().unwrap().len() >= 9);
    }

    #[test]
    fn amd_report_lists_amd_events() {
        let m = Machine::preset("zen3").unwrap();
        let r = probe_machine(&m);
        let names: Vec<&str> = r["pmu_events"]
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e["name"].as_str().unwrap())
            .collect();
        assert!(names.contains(&"RETIRED_SSE_AVX_FLOPS:ANY"));
        assert!(names.contains(&"RAPL_ENERGY_DRAM"));
        assert!(!names.contains(&"FP_ARITH:SCALAR_DOUBLE"));
    }
}
