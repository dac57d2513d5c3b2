//! Automatic dashboard generation from the KB (§III-B).
//!
//! The tree-structured KB makes dashboards fully automatic: the *focus*,
//! *subtree*, and *level* views each select a set of interfaces, collect
//! their telemetry measurements, and emit one panel per measurement with
//! one target per field.

use crate::dashboard::model::{Dashboard, Datasource, Target};
use crate::kb::views;
use crate::kb::KnowledgeBase;
use pmove_jsonld::{Dtmi, Interface};

fn targets_for(kb: &KnowledgeBase, interfaces: &[&Interface]) -> Vec<(String, Vec<Target>)> {
    views::telemetry_measurements(interfaces)
        .into_iter()
        .map(|(measurement, fields)| {
            let targets = if fields.is_empty() {
                vec![Target {
                    datasource: Datasource::influx(&kb.db.influx_uid),
                    measurement: measurement.to_string(),
                    params: "value".into(),
                }]
            } else {
                fields
                    .into_iter()
                    .map(|f| Target {
                        datasource: Datasource::influx(&kb.db.influx_uid),
                        measurement: measurement.to_string(),
                        params: f.to_string(),
                    })
                    .collect()
            };
            (measurement.to_string(), targets)
        })
        .collect()
}

fn build(kb: &KnowledgeBase, id: u32, title: String, interfaces: &[&Interface]) -> Dashboard {
    let mut d = Dashboard::new(id, title);
    for (measurement, targets) in targets_for(kb, interfaces) {
        d = d.panel(measurement, targets);
    }
    d
}

/// Focus view: metrics of a single component; with `extend_to_root`, one
/// panel group per component on the path to the system twin (root-cause
/// navigation).
pub fn focus_dashboard(kb: &KnowledgeBase, id: &Dtmi, extend_to_root: bool) -> Option<Dashboard> {
    if extend_to_root {
        let path = views::focus_path(kb, id);
        if path.is_empty() {
            return None;
        }
        let title = format!("focus-path: {}", path[0].display_name);
        Some(build(kb, 1, title, &path))
    } else {
        let iface = views::focus(kb, id)?;
        Some(build(
            kb,
            1,
            format!("focus: {}", iface.display_name),
            &[iface],
        ))
    }
}

/// Subtree view: a component and all its descendants.
pub fn subtree_dashboard(kb: &KnowledgeBase, id: &Dtmi) -> Option<Dashboard> {
    let sub = views::subtree(kb, id);
    if sub.is_empty() {
        return None;
    }
    let title = format!("subtree: {}", sub[0].display_name);
    Some(build(kb, 2, title, &sub))
}

/// Level view: all components of one type (optionally restricted to a
/// name list — e.g. the processes of one SpMV run).
pub fn level_dashboard(kb: &KnowledgeBase, component_type: &str) -> Option<Dashboard> {
    let level = views::level(kb, component_type);
    if level.is_empty() {
        return None;
    }
    Some(build(kb, 3, format!("level: {component_type}"), &level))
}

/// One optional panel of the self dashboard: the counters and gauges
/// whose names start with one of its prefixes.
struct SelfPanel {
    title: &'static str,
    counters: &'static [&'static str],
    gauges: &'static [&'static str],
    /// Plot a counter only once it is non-zero: daemons that never use the
    /// feature still register its counters, at zero, and grow no panel.
    nonzero: bool,
    /// One target per label set (`tenant=3`) instead of one `value` target
    /// per name, so per-tenant behaviour reads directly off the panel.
    per_labels: bool,
}

/// The optional panels, in dashboard order.
const SELF_PANELS: &[SelfPanel] = &[
    // WAL, compaction and docdb journal: daemons over durable storage.
    SelfPanel {
        title: "storage engine",
        counters: &["wal.", "store.wal.", "compaction.", "docdb.journal."],
        gauges: &[],
        nonzero: false,
        per_labels: false,
    },
    // Executor and result-cache counters. The engine registers these on
    // attach, so every observed daemon grows the panel (hit rates read as
    // flat zero until queries run).
    SelfPanel {
        title: "query engine",
        counters: &["tsdb.query.", "tsdb.cache."],
        gauges: &[],
        nonzero: false,
        per_labels: false,
    },
    // Spill/retry/breaker series of the self-healing transport mode.
    SelfPanel {
        title: "transport resilience",
        counters: &["pcp.resilience."],
        gauges: &["pcp.resilience."],
        nonzero: true,
        per_labels: false,
    },
    // Quorum-write, hinted-handoff and anti-entropy counters plus the
    // coordinator's health gauges: daemons booted over the replicated store.
    SelfPanel {
        title: "replication",
        counters: &["tsdb.repl."],
        gauges: &["tsdb.repl."],
        nonzero: true,
        per_labels: false,
    },
    // Scrubber progress and the full-pass heartbeat gauge, once the
    // scrubber ran or boot-time verification quarantined something.
    SelfPanel {
        title: "integrity",
        counters: &["store.scrub."],
        gauges: &["store.scrub."],
        nonzero: true,
        per_labels: false,
    },
    // Columnar write-path throughput and continuous-query materialization.
    SelfPanel {
        title: "batch & rollup",
        counters: &["tsdb.batch.", "tsdb.rollup."],
        gauges: &[],
        nonzero: true,
        per_labels: false,
    },
    // The SLO engine's meta-metrics and the tracer's lifetime counters.
    // (`pmove.` names export as themselves, without the `pmove.self.`
    // prefix: `measurement_for`.)
    SelfPanel {
        title: "tracing & SLO",
        counters: &["pmove.slo.", "pmove.trace."],
        gauges: &["pmove.slo.", "pmove.trace."],
        nonzero: false,
        per_labels: false,
    },
    // Admission, shed and execution counters plus the per-tenant cache
    // hit/miss and coalescing series of the multi-tenant serving layer.
    SelfPanel {
        title: "query serving",
        counters: &["pmove.serve."],
        gauges: &["pmove.serve."],
        nonzero: false,
        per_labels: true,
    },
];

/// Self-observability dashboard (the framework watching itself): built
/// from a registry [`Snapshot`](pmove_obs::Snapshot) instead of KB
/// telemetry, targeting the `pmove.self.*` series that
/// [`export_snapshot`](pmove_tsdb::export_snapshot) writes.
///
/// Panels: transport loss (loss gauge + the four conservation counters),
/// one latency panel per histogram (p50/p90/p99 targets), the
/// optional panels (`SELF_PANELS`) whose series the snapshot carries,
/// per-daemon-step span timings, and the remaining spans.
pub(crate) fn self_dashboard(kb: &KnowledgeBase, snap: &pmove_obs::Snapshot) -> Dashboard {
    use pmove_tsdb::self_export::{measurement_for, SELF_PREFIX, SPAN_PREFIX};
    let target = |measurement: &str, params: &str| Target {
        datasource: Datasource::influx(&kb.db.influx_uid),
        measurement: measurement.to_string(),
        params: params.to_string(),
    };

    let mut d = Dashboard::new(4, format!("self: {}", kb.machine_key));

    // Transport loss accounting: the gauge plus the conservation terms.
    let loss_targets: Vec<Target> = [
        "pcp.transport.loss_pct",
        "pcp.transport.values_offered",
        "pcp.transport.values_inserted",
        "pcp.transport.values_zeroed",
        "pcp.transport.values_lost",
    ]
    .iter()
    .map(|name| target(&format!("{SELF_PREFIX}{name}"), "value"))
    .collect();
    d = d.panel("transport loss", loss_targets);

    // One panel per histogram, quantile targets.
    let mut seen = Vec::new();
    for (key, _) in &snap.histograms {
        if seen.contains(&key.name) {
            continue;
        }
        seen.push(key.name.clone());
        let m = measurement_for(&key.name);
        let targets = ["p50", "p90", "p99"]
            .iter()
            .map(|q| target(&m, q))
            .collect();
        d = d.panel(key.name.clone(), targets);
    }

    // The optional panels: each grows only when the snapshot carries
    // series of its family.
    let named = |prefixes: &[&str], name: &str| prefixes.iter().any(|x| name.starts_with(x));
    for p in SELF_PANELS {
        let counters = snap
            .counters
            .iter()
            .filter(|(key, value)| named(p.counters, &key.name) && (!p.nonzero || *value > 0))
            .map(|(key, _)| key);
        let gauges = snap
            .gauges
            .iter()
            .filter(|(key, _)| named(p.gauges, &key.name))
            .map(|(key, _)| key);
        let mut series: Vec<(String, String)> = counters
            .chain(gauges)
            .map(|key| {
                let params = if p.per_labels && !key.labels.is_empty() {
                    key.labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(",")
                } else {
                    "value".to_string()
                };
                (measurement_for(&key.name), params)
            })
            .collect();
        series.sort();
        series.dedup();
        if !series.is_empty() {
            let targets = series.iter().map(|(m, params)| target(m, params)).collect();
            d = d.panel(p.title, targets);
        }
    }

    // Span timings: daemon boot steps get their own panel.
    let step_targets: Vec<Target> = snap
        .spans
        .iter()
        .filter(|(name, _)| name.starts_with("daemon.step"))
        .map(|(name, _)| target(&format!("{SPAN_PREFIX}{name}"), "mean_ns"))
        .collect();
    if !step_targets.is_empty() {
        d = d.panel("daemon steps", step_targets);
    }
    let other_targets: Vec<Target> = snap
        .spans
        .iter()
        .filter(|(name, _)| !name.starts_with("daemon.step"))
        .map(|(name, _)| target(&format!("{SPAN_PREFIX}{name}"), "mean_ns"))
        .collect();
    if !other_targets.is_empty() {
        d = d.panel("spans", other_targets);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::builder::build_kb;
    use crate::probe::ProbeReport;
    use pmove_hwsim::Machine;

    fn kb() -> KnowledgeBase {
        build_kb(&ProbeReport::collect(&Machine::preset("icl").unwrap())).unwrap()
    }

    #[test]
    fn focus_dashboard_for_a_cache() {
        // Fig. 2(a) is a focus-view dashboard for a cache.
        let kb = kb();
        let l1 = kb.by_name("l1cache0").unwrap();
        let d = focus_dashboard(&kb, &l1.id.clone(), false).unwrap();
        assert!(d.title.contains("l1cache0"));
        // Caches carry no telemetry by default → no panels, but the
        // extended path picks up the core/socket/system metrics.
        let dp = focus_dashboard(&kb, &l1.id.clone(), true).unwrap();
        assert!(dp.target_count() > 0);
        assert!(dp.title.starts_with("focus-path"));
    }

    #[test]
    fn focus_dashboard_for_thread_has_its_fields_only() {
        let kb = kb();
        let cpu3 = kb.by_name("cpu3").unwrap();
        let d = focus_dashboard(&kb, &cpu3.id.clone(), false).unwrap();
        assert!(d.target_count() > 0);
        for p in &d.panels {
            for t in &p.targets {
                assert_eq!(t.params, "_cpu3", "panel {}", p.title);
                assert_eq!(t.datasource.uid, "UUkm1881");
            }
        }
    }

    #[test]
    fn subtree_dashboard_for_socket_covers_all_threads() {
        // Fig. 2(b): subtree view for a whole server/socket.
        let kb = kb();
        let socket = kb.by_name("socket0").unwrap();
        let d = subtree_dashboard(&kb, &socket.id.clone()).unwrap();
        let idle = d
            .panels
            .iter()
            .find(|p| p.title == "kernel_percpu_cpu_idle")
            .expect("per-cpu idle panel");
        assert_eq!(idle.targets.len(), 16);
    }

    #[test]
    fn level_dashboard_isolates_type() {
        // Fig. 2(c/d): level views across same-type components.
        let kb = kb();
        let d = level_dashboard(&kb, "numanode").unwrap();
        assert!(d.panels.iter().any(|p| p.title == "mem_numa_alloc_hit"));
        // All targets are node fields.
        for p in &d.panels {
            for t in &p.targets {
                assert!(t.params.starts_with("_node"), "{}", t.params);
            }
        }
        assert!(level_dashboard(&kb, "gpu").is_none());
    }

    #[test]
    fn self_dashboard_adds_tracing_slo_panel_when_observed() {
        let kb = kb();
        let reg = pmove_obs::Registry::new();
        reg.gauge("pmove.slo.state", &[("slo", "ingest_p99")])
            .set(0.0);
        reg.counter("pmove.slo.transitions", &[("slo", "ingest_p99")])
            .inc();
        reg.gauge("pmove.trace.started", &[]).set(5.0);
        let d = self_dashboard(&kb, &reg.snapshot());
        let panel = d
            .panels
            .iter()
            .find(|p| p.title == "tracing & SLO")
            .expect("tracing & SLO panel");
        // The pmove.* names address their own measurements — no
        // pmove.self. prefix.
        assert!(panel
            .targets
            .iter()
            .any(|t| t.measurement == "pmove.slo.state"));
        assert!(panel
            .targets
            .iter()
            .any(|t| t.measurement == "pmove.trace.started"));
        assert!(panel
            .targets
            .iter()
            .all(|t| !t.measurement.starts_with("pmove.self.")));
        // Untraced registries grow no panel.
        let d0 = self_dashboard(&kb, &pmove_obs::Registry::new().snapshot());
        assert!(d0.panels.iter().all(|p| p.title != "tracing & SLO"));
    }

    #[test]
    fn self_dashboard_adds_query_serving_panel_when_served() {
        let kb = kb();
        let reg = pmove_obs::Registry::new();
        reg.counter("pmove.serve.submitted_total", &[]).add(16);
        reg.counter("pmove.serve.cache_hits_total", &[("tenant", "3")])
            .add(5);
        reg.counter("pmove.serve.cache_misses_total", &[("tenant", "3")])
            .add(2);
        reg.counter("pmove.serve.coalesced_total", &[("tenant", "0")])
            .add(7);
        reg.gauge("pmove.serve.queue_depth", &[]).set(0.0);
        let d = self_dashboard(&kb, &reg.snapshot());
        let panel = d
            .panels
            .iter()
            .find(|p| p.title == "query serving")
            .expect("query serving panel");
        // Serving names address their own measurements, and labeled
        // series keep their tenant in the target params.
        assert!(panel
            .targets
            .iter()
            .any(|t| t.measurement == "pmove.serve.cache_hits_total" && t.params == "tenant=3"));
        assert!(panel
            .targets
            .iter()
            .any(|t| t.measurement == "pmove.serve.coalesced_total" && t.params == "tenant=0"));
        assert!(panel
            .targets
            .iter()
            .any(|t| t.measurement == "pmove.serve.submitted_total" && t.params == "value"));
        assert!(panel
            .targets
            .iter()
            .all(|t| !t.measurement.starts_with("pmove.self.")));
        // Runs that never served grow no panel.
        let d0 = self_dashboard(&kb, &pmove_obs::Registry::new().snapshot());
        assert!(d0.panels.iter().all(|p| p.title != "query serving"));
    }

    #[test]
    fn dashboards_serialize_to_shareable_json() {
        let kb = kb();
        let d = level_dashboard(&kb, "thread").unwrap();
        let j = d.to_json();
        let back = Dashboard::from_json(&j).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn self_dashboard_covers_loss_latency_and_steps() {
        let mut d = crate::telemetry::daemon::PMoveDaemon::for_preset("icl").unwrap();
        d.monitor(5.0, 2.0);
        let dash = d.self_dashboard();
        assert!(dash.title.starts_with("self:"));
        let titles: Vec<&str> = dash.panels.iter().map(|p| p.title.as_str()).collect();
        assert!(titles.contains(&"transport loss"));
        assert!(titles.contains(&"tsdb.ingest_ns"));
        assert!(titles.contains(&"daemon steps"));
        // Loss panel carries the conservation terms.
        let loss = dash
            .panels
            .iter()
            .find(|p| p.title == "transport loss")
            .unwrap();
        assert!(loss
            .targets
            .iter()
            .any(|t| t.measurement == "pmove.self.pcp.transport.values_lost"));
        // Latency panels target quantiles.
        let ingest = dash
            .panels
            .iter()
            .find(|p| p.title == "tsdb.ingest_ns")
            .unwrap();
        let params: Vec<&str> = ingest.targets.iter().map(|t| t.params.as_str()).collect();
        assert_eq!(params, vec!["p50", "p90", "p99"]);
        // Step panel targets every boot step's span measurement.
        let steps = dash
            .panels
            .iter()
            .find(|p| p.title == "daemon steps")
            .unwrap();
        assert_eq!(steps.targets.len(), 4);
        assert!(steps
            .targets
            .iter()
            .all(|t| t.measurement.starts_with("pmove.self.span.daemon.step")));
        assert!(steps.targets.iter().all(|t| t.params == "mean_ns"));
        // Round-trips through the shareable-JSON model.
        let back = Dashboard::from_json(&dash.to_json()).unwrap();
        assert_eq!(back, dash);
        // The dashboard's self series actually exist once exported.
        d.export_self_telemetry();
        let ms = d.ts.measurements();
        for t in loss.targets.iter().chain(steps.targets.iter()) {
            assert!(ms.contains(&t.measurement), "missing {}", t.measurement);
        }
    }

    #[test]
    fn self_dashboard_adds_storage_panel_for_durable_daemons() {
        use pmove_tsdb::store::MemDisk;
        use std::sync::Arc;
        let mut d = crate::telemetry::daemon::PMoveDaemon::for_preset_durable(
            "icl",
            Arc::new(MemDisk::new(3)),
        )
        .unwrap();
        d.monitor(2.0, 2.0);
        let dash = d.self_dashboard();
        let storage = dash
            .panels
            .iter()
            .find(|p| p.title == "storage engine")
            .expect("durable daemon exposes a storage panel");
        let ms: Vec<&str> = storage
            .targets
            .iter()
            .map(|t| t.measurement.as_str())
            .collect();
        assert!(ms.contains(&"pmove.self.wal.records_appended"));
        assert!(ms.contains(&"pmove.self.wal.commits"));
        assert!(ms.contains(&"pmove.self.docdb.journal.records_appended"));
        // Memory-only daemons have no storage panel.
        let d0 = crate::telemetry::daemon::PMoveDaemon::for_preset("icl").unwrap();
        assert!(d0
            .self_dashboard()
            .panels
            .iter()
            .all(|p| p.title != "storage engine"));
    }

    #[test]
    fn self_dashboard_includes_query_engine_panel() {
        let mut d = crate::telemetry::daemon::PMoveDaemon::for_preset("icl").unwrap();
        d.monitor(5.0, 2.0);
        // Drive the query path so the counters carry non-registration values
        // too (panel membership itself comes from registration).
        d.ts.query("SELECT * FROM \"kernel_all_load\"").ok();
        let dash = d.self_dashboard();
        let panel = dash
            .panels
            .iter()
            .find(|p| p.title == "query engine")
            .expect("self dashboard exposes the query-engine panel");
        let ms: Vec<&str> = panel
            .targets
            .iter()
            .map(|t| t.measurement.as_str())
            .collect();
        assert!(ms.contains(&"pmove.self.tsdb.query.executions"));
        assert!(ms.contains(&"pmove.self.tsdb.query.rows_scanned"));
        assert!(ms.contains(&"pmove.self.tsdb.cache.hits"));
        assert!(ms.contains(&"pmove.self.tsdb.cache.misses"));
        // The targeted series exist once self telemetry is exported.
        d.export_self_telemetry();
        let exported = d.ts.measurements();
        for t in &panel.targets {
            assert!(
                exported.contains(&t.measurement),
                "missing {}",
                t.measurement
            );
        }
    }

    #[test]
    fn self_dashboard_adds_resilience_panel_only_for_resilient_runs() {
        use pmove_hwsim::{FaultKind, FaultSchedule};
        // A plain monitoring run registers only zero-valued supervision
        // counters — no resilience panel.
        let mut d0 = crate::telemetry::daemon::PMoveDaemon::for_preset("icl").unwrap();
        d0.monitor(5.0, 1.0);
        assert!(d0
            .self_dashboard()
            .panels
            .iter()
            .all(|p| p.title != "transport resilience"));

        // A resilient run through an outage grows the panel.
        let mut d = crate::telemetry::daemon::PMoveDaemon::for_preset("icl").unwrap();
        let fault = FaultSchedule::none().with_window(5.0, 15.0, FaultKind::LinkDown);
        d.monitor_resilient(30.0, 1.0, true, Some(fault));
        let dash = d.self_dashboard();
        let panel = dash
            .panels
            .iter()
            .find(|p| p.title == "transport resilience")
            .expect("resilient run exposes a resilience panel");
        let ms: Vec<&str> = panel
            .targets
            .iter()
            .map(|t| t.measurement.as_str())
            .collect();
        assert!(ms.contains(&"pmove.self.pcp.resilience.values_spilled"));
        assert!(ms.contains(&"pmove.self.pcp.resilience.values_recovered"));
        assert!(ms.contains(&"pmove.self.pcp.resilience.spill_pending"));
        assert!(ms.contains(&"pmove.self.pcp.resilience.breaker_state"));
        // The targeted series exist once self telemetry is exported.
        d.export_self_telemetry();
        let exported = d.ts.measurements();
        for t in &panel.targets {
            assert!(
                exported.contains(&t.measurement),
                "missing {}",
                t.measurement
            );
        }
    }

    #[test]
    fn self_dashboard_adds_replication_panel_only_for_replicated_daemons() {
        use pmove_hwsim::{FaultKind, FaultSchedule};
        // A non-replicated daemon registers no tsdb.repl.* names at all.
        let mut d0 = crate::telemetry::daemon::PMoveDaemon::for_preset("icl").unwrap();
        d0.monitor(5.0, 1.0);
        assert!(d0
            .self_dashboard()
            .panels
            .iter()
            .all(|p| p.title != "replication"));

        // A replicated window through a partition grows the panel with
        // both the health gauges and the active hint counters.
        let mut d = crate::telemetry::daemon::PMoveDaemon::for_preset_replicated("icl", 7).unwrap();
        let mut schedules = vec![FaultSchedule::none(); 3];
        schedules[1] = FaultSchedule::none().with_window(2.0, 8.0, FaultKind::LinkDown);
        d.monitor_replicated(15.0, 1.0, Some(schedules)).unwrap();
        let dash = d.self_dashboard();
        let panel = dash
            .panels
            .iter()
            .find(|p| p.title == "replication")
            .expect("replicated run exposes a replication panel");
        let ms: Vec<&str> = panel
            .targets
            .iter()
            .map(|t| t.measurement.as_str())
            .collect();
        assert!(ms.contains(&"pmove.self.tsdb.repl.quorum_writes"), "{ms:?}");
        assert!(ms.contains(&"pmove.self.tsdb.repl.hints_queued"), "{ms:?}");
        assert!(ms.contains(&"pmove.self.tsdb.repl.replicas_healthy"));
        assert!(ms.contains(&"pmove.self.tsdb.repl.primary"));
        assert!(ms.contains(&"pmove.self.tsdb.repl.hints_pending"));
        // The targeted series exist once self telemetry is exported.
        d.export_self_telemetry();
        let exported = d.ts.measurements();
        for t in &panel.targets {
            assert!(
                exported.contains(&t.measurement),
                "missing {}",
                t.measurement
            );
        }
    }

    #[test]
    fn self_dashboard_adds_integrity_panel_only_when_scrubbing_ran() {
        use pmove_tsdb::store::{MemDisk, RotSchedule, Vfs};
        use std::sync::Arc;
        // A daemon that never scrubs registers no live store.scrub.*
        // series, so no panel grows.
        let mut d0 = crate::telemetry::daemon::PMoveDaemon::for_preset("icl").unwrap();
        d0.monitor(5.0, 1.0);
        assert!(d0
            .self_dashboard()
            .panels
            .iter()
            .all(|p| p.title != "integrity"));

        // A scrubbing durable daemon that survives latent rot grows the
        // panel with the detection counters and the heartbeat gauge.
        let disk = Arc::new(MemDisk::new(41));
        let vfs: Arc<dyn Vfs> = disk.clone();
        let mut d = crate::telemetry::daemon::PMoveDaemon::for_preset_durable("icl", vfs).unwrap();
        assert!(d.enable_scrubbing(4.0));
        d.monitor(5.0, 1.0);
        d.ts.flush().unwrap();
        disk.schedule_rot(RotSchedule::none().at(6.0, 1).with_prefix("chunk-"));
        disk.advance_rot(6.0);
        for _ in 0..6 {
            d.monitor(5.0, 1.0);
            if !d.ts.store().unwrap().quarantined().is_empty() {
                break;
            }
        }
        let dash = d.self_dashboard();
        let panel = dash
            .panels
            .iter()
            .find(|p| p.title == "integrity")
            .expect("scrubbed run exposes an integrity panel");
        let ms: Vec<&str> = panel
            .targets
            .iter()
            .map(|t| t.measurement.as_str())
            .collect();
        assert!(
            ms.contains(&"pmove.self.store.scrub.chunks_verified"),
            "{ms:?}"
        );
        assert!(
            ms.contains(&"pmove.self.store.scrub.corruptions_detected"),
            "{ms:?}"
        );
        assert!(
            ms.contains(&"pmove.self.store.scrub.chunks_quarantined"),
            "{ms:?}"
        );
        assert!(
            ms.contains(&"pmove.self.store.scrub.last_full_pass"),
            "{ms:?}"
        );
        // The targeted series exist once self telemetry is exported.
        d.export_self_telemetry();
        let exported = d.ts.measurements();
        for t in &panel.targets {
            assert!(
                exported.contains(&t.measurement),
                "missing {}",
                t.measurement
            );
        }
    }

    #[test]
    fn unknown_component_yields_none() {
        let kb = kb();
        let ghost = pmove_jsonld::Dtmi::parse("dtmi:dt:ghost;1").unwrap();
        assert!(focus_dashboard(&kb, &ghost, false).is_none());
        assert!(subtree_dashboard(&kb, &ghost).is_none());
    }
}
