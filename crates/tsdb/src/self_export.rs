//! Meta-telemetry: flush an observability snapshot into the database as
//! `pmove.self.*` time series, so the pipeline's own health is queryable
//! and dashboardable exactly like the telemetry it carries.
//!
//! Schema:
//!
//! * counters → measurement `pmove.self.<name>`, labels as tags, one
//!   `value` field holding the running total;
//! * gauges → measurement `pmove.self.<name>`, labels as tags, one
//!   `value` field holding the last value;
//! * histograms → measurement `pmove.self.<name>`, labels as tags, fields
//!   `count`, `sum`, `max`, `mean`, `p50`, `p90`, `p99`, plus
//!   `exemplar_trace_id`/`exemplar_value` when a trace-tagged sample was
//!   recorded;
//! * spans → measurement `pmove.self.span.<span name>` with fields
//!   `count`, `total_ns`, `min_ns`, `max_ns`, `mean_ns`, `p50_ns`,
//!   `p90_ns`, `p99_ns`, `last_start_ns`, `last_end_ns`.
//!
//! Metric names already rooted in `pmove.` (the SLO engine's
//! `pmove.slo.*` meta-metrics) keep their own name instead of gaining a
//! second prefix.
//!
//! Exports are deterministic: snapshots are sorted by metric key and all
//! values derive from the virtual clock, so two same-seed runs produce
//! identical `pmove.self.*` series.

use crate::engine::Database;
use crate::point::Point;
use pmove_obs::Snapshot;

/// Measurement prefix of all self-telemetry.
pub const SELF_PREFIX: &str = "pmove.self.";

/// Measurement prefix of exported span aggregates.
pub const SPAN_PREFIX: &str = "pmove.self.span.";

/// Metric names already rooted in the `pmove.` namespace (e.g. the SLO
/// engine's `pmove.slo.*` meta-metrics, the serving layer's
/// `pmove.serve.*` family) export under their own name; a second prefix
/// would bury them as `pmove.self.pmove.slo.*`.
pub fn measurement_for(name: &str) -> String {
    if name.starts_with("pmove.") {
        name.to_string()
    } else {
        format!("{SELF_PREFIX}{name}")
    }
}

fn tagged(name: &str, labels: &[(String, String)], t_ns: i64) -> Point {
    let mut p = Point::new(measurement_for(name)).timestamp(t_ns);
    for (k, v) in labels {
        p = p.tag(k, v);
    }
    p
}

/// Write every metric in `snap` into `db` at virtual time `t_ns`.
/// Returns the number of points written (one per metric/span).
pub fn export_snapshot(db: &Database, snap: &Snapshot, t_ns: i64) -> usize {
    let mut written = 0;
    for (key, total) in &snap.counters {
        let p = tagged(&key.name, &key.labels, t_ns).field("value", *total as f64);
        written += usize::from(db.write_point(p).is_ok());
    }
    for (key, value) in &snap.gauges {
        let p = tagged(&key.name, &key.labels, t_ns).field("value", *value);
        written += usize::from(db.write_point(p).is_ok());
    }
    for (key, h) in &snap.histograms {
        let mut p = tagged(&key.name, &key.labels, t_ns)
            .field("count", h.count as f64)
            .field("sum", h.sum as f64)
            .field("max", h.max as f64)
            .field("mean", h.mean)
            .field("p50", h.p50)
            .field("p90", h.p90)
            .field("p99", h.p99);
        if let Some((trace_id, value)) = h.exemplar {
            p = p
                .field("exemplar_trace_id", trace_id as f64)
                .field("exemplar_value", value as f64);
        }
        written += usize::from(db.write_point(p).is_ok());
    }
    for (name, s) in &snap.spans {
        let p = Point::new(format!("{SPAN_PREFIX}{name}"))
            .timestamp(t_ns)
            .field("count", s.count as f64)
            .field("total_ns", s.total_ns as f64)
            .field("min_ns", s.min_ns as f64)
            .field("max_ns", s.max_ns as f64)
            .field("mean_ns", s.mean_ns())
            .field("p50_ns", s.p50_ns)
            .field("p90_ns", s.p90_ns)
            .field("p99_ns", s.p99_ns)
            .field("last_start_ns", s.last_start_ns as f64)
            .field("last_end_ns", s.last_end_ns as f64);
        written += usize::from(db.write_point(p).is_ok());
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_obs::{Registry, Span, Tracer};
    use std::sync::Arc;

    fn filled_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("pcp.transport.values_lost", &[("host", "skx")])
            .add(7);
        reg.gauge("pcp.transport.loss_pct", &[]).set(12.5);
        reg.histogram("tsdb.ingest_ns", &[], pmove_obs::latency_buckets())
            .record(5_000);
        reg.record_span("daemon.step3.kb_insert", 1_000, 4_000);
        reg
    }

    #[test]
    fn export_writes_all_metric_kinds() {
        let reg = filled_registry();
        let db = Database::new("meta");
        let n = export_snapshot(&db, &reg.snapshot(), 10_000_000_000);
        assert_eq!(n, 4);
        let ms = db.measurements();
        assert!(ms.contains(&"pmove.self.pcp.transport.values_lost".to_string()));
        assert!(ms.contains(&"pmove.self.pcp.transport.loss_pct".to_string()));
        assert!(ms.contains(&"pmove.self.tsdb.ingest_ns".to_string()));
        assert!(ms.contains(&"pmove.self.span.daemon.step3.kb_insert".to_string()));

        // Labels become tags; values are queryable like any telemetry.
        let r = db
            .query(
                "SELECT \"value\" FROM \"pmove.self.pcp.transport.values_lost\" WHERE host='skx'",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].values["value"], Some(7.0));
        let r = db
            .query("SELECT \"mean_ns\" FROM \"pmove.self.span.daemon.step3.kb_insert\"")
            .unwrap();
        assert_eq!(r.rows[0].values["mean_ns"], Some(3_000.0));
    }

    #[test]
    fn pmove_rooted_names_keep_their_prefix() {
        let reg = Registry::new();
        reg.gauge("pmove.slo.ingest_p99.burn_rate", &[]).set(2.0);
        reg.counter("pcp.sampler.ticks", &[]).inc();
        let db = Database::new("meta");
        export_snapshot(&db, &reg.snapshot(), 5);
        let ms = db.measurements();
        assert!(ms.contains(&"pmove.slo.ingest_p99.burn_rate".to_string()));
        assert!(ms.contains(&"pmove.self.pcp.sampler.ticks".to_string()));
        assert!(!ms.iter().any(|m| m.starts_with("pmove.self.pmove.")));
    }

    #[test]
    fn span_quantiles_and_exemplars_export() {
        let reg = Registry::new();
        for _ in 0..9 {
            reg.record_span("stage", 0, 1_000);
        }
        reg.record_span("stage", 0, 900_000);
        // A recording span tags what it observes with its trace id.
        let tracer = Arc::new(Tracer::new(1, 256));
        let span = Span::root(Some(&tracer), "sample", 0);
        span.observe(
            &reg.histogram("tsdb.ingest_ns", &[], pmove_obs::latency_buckets()),
            5_000,
        );
        span.finish(1, "ok");
        let trace = tracer.last_finished().unwrap().id.0;
        let db = Database::new("meta");
        export_snapshot(&db, &reg.snapshot(), 5);
        let r = db
            .query("SELECT \"p99_ns\" FROM \"pmove.self.span.stage\"")
            .unwrap();
        let p99 = r.rows[0].values["p99_ns"].unwrap();
        assert!(p99 > 1_000.0, "p99 should see the slow tail, got {p99}");
        let r = db
            .query("SELECT \"exemplar_trace_id\" FROM \"pmove.self.tsdb.ingest_ns\"")
            .unwrap();
        assert_eq!(r.rows[0].values["exemplar_trace_id"], Some(trace as f64));
    }

    #[test]
    fn same_state_exports_identical_series() {
        let db_a = Database::new("a");
        let db_b = Database::new("b");
        export_snapshot(&db_a, &filled_registry().snapshot(), 5);
        export_snapshot(&db_b, &filled_registry().snapshot(), 5);
        assert_eq!(db_a.measurements(), db_b.measurements());
        for m in db_a.measurements() {
            let q = format!("SELECT * FROM \"{m}\"");
            let (ra, rb) = (db_a.query(&q).unwrap(), db_b.query(&q).unwrap());
            assert_eq!(ra.rows, rb.rows, "{m}");
        }
    }
}
