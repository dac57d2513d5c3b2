//! Root-cause tracing: the extended focus view of §III-B.
//!
//! When the level-view anomaly scan flags a component, this module walks
//! the KB path from that component up to the system twin, collecting each
//! ancestor's telemetry statistics — "navigating from a component
//! perspective to a more generalized system perspective ... aiding in
//! tracing and isolating performance issues".

use crate::analysis::anomaly::Anomaly;
use crate::kb::views;
use crate::kb::KnowledgeBase;
use pmove_jsonld::Dtmi;
use pmove_tsdb::{Database, Query};

/// One step of a root-cause trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Twin id at this level.
    pub id: Dtmi,
    /// Component type (`thread`, `core`, `socket`, ...).
    pub component_type: String,
    /// Display name.
    pub name: String,
    /// (measurement, field, mean) for each telemetry stream with data.
    pub stats: Vec<(String, String, f64)>,
}

/// Resolve the KB twin that owns an anomaly's (measurement, field) pair.
pub fn locate_component<'a>(
    kb: &'a KnowledgeBase,
    anomaly: &Anomaly,
) -> Option<&'a pmove_jsonld::Interface> {
    kb.interfaces.iter().find(|iface| {
        iface.telemetry().any(|t| {
            t.db_name == anomaly.measurement && t.field_name.as_deref() == Some(&anomaly.field)
        })
    })
}

/// Build the focus-path trace for an anomaly: the flagged component first,
/// then each ancestor up to the root, with per-level telemetry means.
pub fn trace_anomaly(kb: &KnowledgeBase, ts: &Database, anomaly: &Anomaly) -> Vec<TraceStep> {
    let Some(origin) = locate_component(kb, anomaly) else {
        return Vec::new();
    };
    views::focus_path(kb, &origin.id)
        .into_iter()
        .map(|iface| {
            let mut stats = Vec::new();
            for t in iface.telemetry() {
                let field = t.field_name.clone().unwrap_or_else(|| "value".into());
                let q = format!("SELECT mean(\"{field}\") FROM \"{}\"", t.db_name);
                let frame = Query::parse(&q).and_then(|q| ts.query_frame(&q));
                if let Some(v) = frame.ok().and_then(|f| *f.cols[0].first()?) {
                    stats.push((t.db_name.clone(), field.clone(), v));
                }
            }
            TraceStep {
                id: iface.id.clone(),
                component_type: iface.component_type.clone(),
                name: iface.display_name.clone(),
                stats,
            }
        })
        .collect()
}

/// Render a trace as text.
pub fn format_trace(steps: &[TraceStep]) -> String {
    let mut out = String::from("root-cause trace (component → system):\n");
    for s in steps {
        out.push_str(&format!("  [{}] {}\n", s.component_type, s.name));
        for (m, f, v) in s.stats.iter().take(4) {
            out.push_str(&format!("      {m} {f} mean={v:.4e}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::anomaly_scan;
    use crate::PMoveDaemon;

    /// Monitor with one thread pinned busy, flag it, and trace the path.
    #[test]
    fn trace_reaches_the_system_twin() {
        let mut d = PMoveDaemon::for_preset("icl").unwrap();
        // Make cpu5 anomalously busy via a long pinned execution.
        use crate::profiles::stream_kernel_profile;
        use crate::telemetry::pinning::PinningStrategy;
        use crate::telemetry::scenario_b::ProfileRequest;
        use pmove_hwsim::vendor::IsaExt;
        use pmove_kernels::StreamKernel;
        let request = ProfileRequest {
            profile: stream_kernel_profile(StreamKernel::Peakflops, 1 << 34, 1, IsaExt::Scalar),
            command: "hog".into(),
            generic_events: vec!["CPU_CYCLES".into()],
            freq_hz: 4.0,
            pinning: PinningStrategy::Compact,
        };
        d.profile(&request).unwrap();
        d.monitor(20.0, 2.0);

        // Hand-build an anomaly on cpu0's idle field (the pinned thread).
        let anomaly = Anomaly {
            measurement: "kernel_percpu_cpu_idle".into(),
            field: "_cpu0".into(),
            value: 0.0,
            level_mean: 0.9,
            z_score: -3.5,
        };
        let steps = trace_anomaly(&d.kb, &d.ts, &anomaly);
        let kinds: Vec<&str> = steps.iter().map(|s| s.component_type.as_str()).collect();
        assert_eq!(
            kinds,
            vec!["thread", "core", "socket", "numanode", "system"]
        );
        // The thread level has per-cpu stats; the system level has
        // singular stats (load, memory).
        assert!(!steps[0].stats.is_empty());
        assert!(steps
            .last()
            .unwrap()
            .stats
            .iter()
            .any(|(m, _, _)| m == "kernel_all_load"));
        let text = format_trace(&steps);
        assert!(text.contains("[thread] cpu0"));
        assert!(text.contains("[system] icl"));
    }

    #[test]
    fn scan_plus_trace_pipeline() {
        // Synthetic data: cpu3 pegged. The scan finds it and the trace
        // locates the twin.
        let d = PMoveDaemon::for_preset("icl").unwrap();
        for t in 0..30 {
            let mut p =
                pmove_tsdb::Point::new("kernel_percpu_cpu_idle").timestamp(t * 1_000_000_000);
            for c in 0..16 {
                p = p.field(format!("_cpu{c}"), if c == 3 { 0.01 } else { 0.9 });
            }
            d.ts.write_point(p).unwrap();
        }
        let found = anomaly_scan(&d.ts, "kernel_percpu_cpu_idle", None, 2.0);
        assert_eq!(found.len(), 1);
        let origin = locate_component(&d.kb, &found[0]).expect("twin located");
        assert_eq!(origin.display_name, "cpu3");
        let steps = trace_anomaly(&d.kb, &d.ts, &found[0]);
        assert_eq!(steps.len(), 5);
    }

    #[test]
    fn unknown_anomaly_traces_to_nothing() {
        let d = PMoveDaemon::for_preset("icl").unwrap();
        let bogus = Anomaly {
            measurement: "no_such_measurement".into(),
            field: "_cpu0".into(),
            value: 0.0,
            level_mean: 0.0,
            z_score: 9.0,
        };
        assert!(trace_anomaly(&d.kb, &d.ts, &bogus).is_empty());
    }
}
