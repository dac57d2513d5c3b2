//! KB generation from a probe report (the host side of step ②).
//!
//! Every component that computes, communicates or stores becomes a DTDL
//! Interface; relationships encode the containment tree; the available
//! metrics are filtered per component kind and attached as `SWTelemetry`
//! / `HWTelemetry` entries (paper §III-C). GPU sections become Listing-4
//! style interfaces.

use crate::error::PmoveError;
use crate::kb::KnowledgeBase;
use crate::probe::ProbeReport;
use pmove_jsonld::dtdl::TelemetryBuilder;
use pmove_jsonld::{Dtmi, Interface};
use serde_json::Value;
use std::collections::BTreeMap;

/// Build the knowledge base for one probed target.
pub fn build_kb(report: &ProbeReport) -> Result<KnowledgeBase, PmoveError> {
    build_kb_observed(report, &pmove_obs::Registry::disabled())
}

/// [`build_kb`] with `kb.builder.*` counters recorded in `obs`:
/// interfaces built, telemetry entries attached (by kind), and GPU twins
/// enriched.
pub fn build_kb_observed(
    report: &ProbeReport,
    obs: &pmove_obs::Registry,
) -> Result<KnowledgeBase, PmoveError> {
    let host = report.hostname().to_string();
    let mut kb = KnowledgeBase::new(host.clone(), report.pmu_name());

    // --- component tree → interfaces -----------------------------------
    let components = report.components();
    let mut dtmi_of: BTreeMap<u64, Dtmi> = BTreeMap::new();
    for c in components {
        let cid = c["id"]
            .as_u64()
            .ok_or_else(|| PmoveError::BadProbeReport("component without id".into()))?;
        let name = c["name"].as_str().unwrap_or("unnamed");
        let kind = c["kind"].as_str().unwrap_or("component");
        let parent = c["parent"].as_u64();
        let dtmi = match parent {
            None => kb.root_id(),
            Some(p) => dtmi_of
                .get(&p)
                .ok_or_else(|| PmoveError::BadProbeReport(format!("orphan component {cid}")))?
                .child(&sanitize_segment(name))
                .map_err(|e| PmoveError::BadProbeReport(e.to_string()))?,
        };
        let mut iface = Interface::new(dtmi.clone(), kind, name);
        if let Some(attrs) = c["attrs"].as_object() {
            for (k, v) in attrs {
                iface.add_property(k.clone(), v.clone());
            }
        }
        dtmi_of.insert(cid, dtmi.clone());
        let parent_dtmi = parent.and_then(|p| dtmi_of.get(&p).cloned());
        // Containment edge on the parent.
        if let Some(p) = &parent_dtmi {
            if let Some(parent_iface) = kb.get_mut(p) {
                parent_iface.add_relationship("contains", dtmi.clone());
            }
        }
        kb.add_interface(iface, parent_dtmi.as_ref());
    }

    attach_sw_telemetry(&mut kb, report)?;
    attach_hw_telemetry(&mut kb, report)?;
    attach_gpus(&mut kb, report)?;

    kb.validate()?;
    if obs.is_enabled() {
        let labels = [("host", host.as_str())];
        obs.counter("kb.builder.interfaces_built", &labels)
            .add(kb.len() as u64);
        let mut sw = 0u64;
        let mut hw = 0u64;
        for iface in &kb.interfaces {
            for t in iface.telemetry() {
                match t.kind {
                    pmove_jsonld::TelemetryKind::Software => sw += 1,
                    pmove_jsonld::TelemetryKind::Hardware => hw += 1,
                }
            }
        }
        obs.counter("kb.builder.sw_telemetry_attached", &labels)
            .add(sw);
        obs.counter("kb.builder.hw_telemetry_attached", &labels)
            .add(hw);
        obs.counter("kb.builder.gpus_enriched", &labels)
            .add(kb.of_type("gpu").len() as u64);
    }
    Ok(kb)
}

/// DTMI segments allow `[A-Za-z][A-Za-z0-9_]*`; sanitize probe names
/// (`nvme0n1` is fine, `eth0` is fine, a leading digit or dash is not).
fn sanitize_segment(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.chars().next().is_none_or(|c| !c.is_ascii_alphabetic()) {
        s.insert(0, 'c');
    }
    if s.ends_with('_') {
        s.push('x');
    }
    s
}

fn attach_sw_telemetry(kb: &mut KnowledgeBase, report: &ProbeReport) -> Result<(), PmoveError> {
    let metrics: Vec<(String, String)> = report
        .sw_metrics()
        .iter()
        .filter_map(|m| {
            Some((
                m["name"].as_str()?.to_string(),
                m["indom"].as_str()?.to_string(),
            ))
        })
        .collect();
    // Indices of target interfaces per kind, resolved via component_type.
    let threads: Vec<Dtmi> = kb.of_type("thread").iter().map(|i| i.id.clone()).collect();
    let nodes: Vec<Dtmi> = kb
        .of_type("numanode")
        .iter()
        .map(|i| i.id.clone())
        .collect();
    let disks: Vec<Dtmi> = kb.of_type("disk").iter().map(|i| i.id.clone()).collect();
    let nics: Vec<Dtmi> = kb.of_type("nic").iter().map(|i| i.id.clone()).collect();
    let root = kb.root_id();

    let mut metric_no = 0usize;
    for (name, indom) in metrics {
        let targets: Vec<(Dtmi, Option<String>)> = match indom.as_str() {
            "per-cpu" => threads
                .iter()
                .enumerate()
                .map(|(i, d)| (d.clone(), Some(format!("_cpu{i}"))))
                .collect(),
            "per-node" => nodes
                .iter()
                .enumerate()
                .map(|(i, d)| (d.clone(), Some(format!("_node{i}"))))
                .collect(),
            "per-disk" => disks.iter().map(|d| (d.clone(), None)).collect(),
            "per-nic" => nics.iter().map(|d| (d.clone(), None)).collect(),
            // singular and per-process metrics live on the system twin.
            _ => vec![(root.clone(), None)],
        };
        for (dtmi, field) in targets {
            let mut b = TelemetryBuilder::software(format!("metric{metric_no}"), name.clone());
            if let Some(f) = field {
                b = b.field(f);
            }
            metric_no += 1;
            if let Some(iface) = kb.get_mut(&dtmi) {
                iface.add_telemetry(b);
            }
        }
    }
    Ok(())
}

fn attach_hw_telemetry(kb: &mut KnowledgeBase, report: &ProbeReport) -> Result<(), PmoveError> {
    let pmu = kb.pmu_name.clone();
    let events: Vec<(String, bool, String)> = report.json["pmu_events"]
        .as_array()
        .map(|a| {
            a.iter()
                .filter_map(|e| {
                    Some((
                        e["name"].as_str()?.to_string(),
                        e["per_package"].as_bool().unwrap_or(false),
                        e["description"].as_str().unwrap_or("").to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    let threads: Vec<Dtmi> = kb.of_type("thread").iter().map(|i| i.id.clone()).collect();
    let nodes: Vec<Dtmi> = kb
        .of_type("numanode")
        .iter()
        .map(|i| i.id.clone())
        .collect();

    let mut metric_no = 100_000usize; // distinct logical-name space from SW
    for (event, per_package, desc) in events {
        let targets: Vec<(Dtmi, String)> = if per_package {
            nodes
                .iter()
                .enumerate()
                .map(|(i, d)| (d.clone(), format!("_node{i}")))
                .collect()
        } else {
            threads
                .iter()
                .enumerate()
                .map(|(i, d)| (d.clone(), format!("_cpu{i}")))
                .collect()
        };
        for (dtmi, field) in targets {
            let b = TelemetryBuilder::hardware(
                format!("metric{metric_no}"),
                pmu.clone(),
                event.clone(),
            )
            .field(field)
            .description(desc.clone());
            metric_no += 1;
            if let Some(iface) = kb.get_mut(&dtmi) {
                iface.add_telemetry(b);
            }
        }
    }
    Ok(())
}

fn attach_gpus(kb: &mut KnowledgeBase, report: &ProbeReport) -> Result<(), PmoveError> {
    let gpus: Vec<Value> = report.gpus().to_vec();
    let root = kb.root_id();
    for (i, g) in gpus.iter().enumerate() {
        // The GPU component already exists in the tree (built from the
        // topology); enrich it with Listing-4 style telemetry.
        let Some(gpu_iface) = kb.by_name(&format!("gpu{i}")) else {
            continue;
        };
        let dtmi = gpu_iface.id.clone();
        let _ = &root;
        if let Some(iface) = kb.get_mut(&dtmi) {
            // The topology attrs may already carry `model`; only add it
            // from the smi record when missing.
            if iface.property_value("model").is_none() {
                if let Some(model) = g["smi"]["name"].as_str() {
                    iface.add_property("model", Value::String(model.to_string()));
                }
            }
            if let Some(arr) = g["nvml_metrics"].as_array() {
                for (j, m) in arr.iter().enumerate() {
                    if let Some(name) = m["name"].as_str() {
                        iface.add_telemetry(
                            TelemetryBuilder::software(format!("gpumetric{j}"), name)
                                .field(format!("_gpu{i}")),
                        );
                    }
                }
            }
            if let Some(arr) = g["ncu_metrics"].as_array() {
                for (j, m) in arr.iter().enumerate() {
                    if let Some(name) = m["name"].as_str() {
                        iface.add_telemetry(
                            TelemetryBuilder::hardware(format!("gpuhwmetric{j}"), "ncu", name)
                                .db_name(format!("ncu_{name}"))
                                .field(format!("_gpu{i}"))
                                .description(m["description"].as_str().unwrap_or("")),
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_hwsim::gpu::GpuSpec;
    use pmove_hwsim::{Machine, MachineSpec};
    use pmove_jsonld::TelemetryKind;

    fn kb_for(key: &str) -> KnowledgeBase {
        let m = Machine::preset(key).unwrap();
        build_kb(&ProbeReport::collect(&m)).unwrap()
    }

    #[test]
    fn builds_full_component_hierarchy() {
        let kb = kb_for("csl");
        // system + 1 numa + 1 socket + 1 L3 + 28 cores + 28 L1 + 28 L2
        // + 56 threads + 1 mem + 1 disk + 1 nic = 147
        assert_eq!(kb.len(), 147);
        assert_eq!(kb.of_type("thread").len(), 56);
        assert_eq!(kb.of_type("socket").len(), 1);
        kb.validate().unwrap();
    }

    #[test]
    fn dtmis_are_hierarchical() {
        let kb = kb_for("icl");
        let cpu0 = kb.by_name("cpu0").unwrap();
        assert!(cpu0.id.to_string().starts_with("dtmi:dt:icl:"));
        assert!(cpu0.id.is_within(&kb.root_id()));
        // Navigation follows the topology.
        let parent = kb.parent_of(&cpu0.id).unwrap();
        assert_eq!(kb.get(parent).unwrap().component_type, "core");
    }

    #[test]
    fn threads_carry_hw_telemetry() {
        let kb = kb_for("csl");
        let cpu0 = kb.by_name("cpu0").unwrap();
        let hw: Vec<_> = cpu0
            .telemetry()
            .filter(|t| t.kind == TelemetryKind::Hardware)
            .collect();
        assert!(hw.len() >= 8, "only {} HW telemetry entries", hw.len());
        assert!(hw
            .iter()
            .any(|t| t.sampler_name == "FP_ARITH:SCALAR_DOUBLE"));
        assert!(hw.iter().all(|t| t.field_name == Some("_cpu0".into())));
        assert!(hw.iter().all(|t| t.pmu_name == Some("csl".into())));
        // RAPL is per-package, so it must NOT be on threads.
        assert!(!hw.iter().any(|t| t.sampler_name.contains("RAPL")));
    }

    #[test]
    fn numa_nodes_carry_rapl() {
        let kb = kb_for("zen3");
        let node0 = kb.by_name("node0").unwrap();
        let names: Vec<&str> = node0.telemetry().map(|t| t.sampler_name.as_str()).collect();
        assert!(names.contains(&"RAPL_ENERGY_PKG"));
        assert!(names.contains(&"RAPL_ENERGY_DRAM"));
        // Plus per-node SW metrics.
        assert!(names.contains(&"mem.numa.alloc_hit"));
    }

    #[test]
    fn system_twin_gets_singular_metrics() {
        let kb = kb_for("icl");
        let root = kb.get(&kb.root_id()).unwrap();
        let names: Vec<&str> = root.telemetry().map(|t| t.sampler_name.as_str()).collect();
        assert!(names.contains(&"kernel.all.load"));
        assert!(names.contains(&"mem.util.used"));
    }

    #[test]
    fn gpu_interfaces_match_listing4() {
        let mut spec = MachineSpec::csl();
        spec.gpus.push(GpuSpec::gv100());
        let m = Machine::new(spec);
        let kb = build_kb(&ProbeReport::collect(&m)).unwrap();
        let gpu = kb.by_name("gpu0").unwrap();
        assert_eq!(gpu.component_type, "gpu");
        assert_eq!(
            gpu.property_value("model"),
            Some(&Value::String("NVIDIA Quadro GV100".into()))
        );
        let sw: Vec<_> = gpu
            .telemetry()
            .filter(|t| t.kind == TelemetryKind::Software)
            .collect();
        assert!(sw
            .iter()
            .any(|t| t.sampler_name == "nvidia.memused" && t.db_name == "nvidia_memused"));
        let hw: Vec<_> = gpu
            .telemetry()
            .filter(|t| t.kind == TelemetryKind::Hardware)
            .collect();
        assert!(hw.iter().any(|t| {
            t.pmu_name.as_deref() == Some("ncu")
                && t.sampler_name == "gpu__compute_memory_access_throughput"
                && t.db_name == "ncu_gpu__compute_memory_access_throughput"
        }));
    }

    #[test]
    fn observed_build_counts_interfaces_and_telemetry() {
        let m = Machine::preset("csl").unwrap();
        let report = ProbeReport::collect(&m);
        let reg = pmove_obs::Registry::shared();
        let kb = build_kb_observed(&report, &reg).unwrap();
        let snap = reg.snapshot();
        let labels = [("host", "csl")];
        assert_eq!(
            snap.counter("kb.builder.interfaces_built", &labels),
            Some(kb.len() as u64)
        );
        let total: u64 = kb
            .interfaces
            .iter()
            .map(|i| i.telemetry().count() as u64)
            .sum();
        let sw = snap
            .counter("kb.builder.sw_telemetry_attached", &labels)
            .unwrap();
        let hw = snap
            .counter("kb.builder.hw_telemetry_attached", &labels)
            .unwrap();
        assert_eq!(sw + hw, total);
        assert!(sw > 0 && hw > 0);
        assert_eq!(snap.counter("kb.builder.gpus_enriched", &labels), Some(0));
    }

    #[test]
    fn segment_sanitization() {
        assert_eq!(sanitize_segment("sda"), "sda");
        assert_eq!(sanitize_segment("nvme0n1"), "nvme0n1");
        assert_eq!(sanitize_segment("0weird"), "c0weird");
        assert_eq!(sanitize_segment("has-dash"), "has_dash");
        assert_eq!(sanitize_segment("trail-"), "trail_x");
    }
}
