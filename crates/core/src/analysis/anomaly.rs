//! Anomaly scanning over level views.
//!
//! The paper motivates "fully automated performance monitoring, anomaly
//! detection and dashboards" from the tree-structured KB. The scan
//! compares same-type components (a level view) and flags series whose
//! summary statistics deviate from the level's distribution — the classic
//! "one slow thread / one hot socket" detector.

use pmove_tsdb::aggregate::AggregateFn;
use pmove_tsdb::query::Projection;
use pmove_tsdb::{Database, Query};

/// One flagged component series.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Measurement scanned.
    pub(crate) measurement: String,
    /// Field (component instance) flagged.
    pub field: String,
    /// The field's mean over the window.
    pub value: f64,
    /// Mean of all fields in the level.
    pub level_mean: f64,
    /// Robust z-score of the deviation.
    pub z_score: f64,
}

/// Scan one measurement's fields for outliers using a z-score over the
/// per-field means; fields beyond `threshold` sigmas are flagged.
pub fn anomaly_scan(
    db: &Database,
    measurement: &str,
    tag: Option<(&str, &str)>,
    threshold: f64,
) -> Vec<Anomaly> {
    let fields = db.field_keys(measurement);
    if fields.len() < 3 {
        return Vec::new(); // too few peers to compare
    }
    // One whole-range query, one mean per field.
    let mean = |f: &String| Projection::Aggregate(AggregateFn::Mean, f.clone());
    let Ok(frame) = db.query_frame(&Query {
        projections: fields.iter().map(mean).collect(),
        measurement: measurement.to_string(),
        tag_filters: tag.map(|(k, v)| (k.into(), v.into())).into_iter().collect(),
        time_start: None,
        time_end: None,
        group_by_time: None,
    }) else {
        return Vec::new();
    };
    let means: Vec<(String, f64)> = fields
        .into_iter()
        .zip(&frame.cols)
        .filter_map(|(f, col)| Some((f, (*col.first()?)?)))
        .collect();
    if means.len() < 3 {
        return Vec::new();
    }
    let level_mean = means.iter().map(|(_, v)| v).sum::<f64>() / means.len() as f64;
    let var = means
        .iter()
        .map(|(_, v)| (v - level_mean).powi(2))
        .sum::<f64>()
        / means.len() as f64;
    let sd = var.sqrt();
    if sd == 0.0 {
        return Vec::new();
    }
    means
        .into_iter()
        .filter_map(|(field, value)| {
            let z = (value - level_mean) / sd;
            (z.abs() >= threshold).then_some(Anomaly {
                measurement: measurement.to_string(),
                field,
                value,
                level_mean,
                z_score: z,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmove_tsdb::Point;

    fn db_with_outlier() -> Database {
        let db = Database::new("t");
        for t in 0..50 {
            let mut p = Point::new("kernel_percpu_cpu_idle").timestamp(t);
            for c in 0..8 {
                // cpu5 is pegged (idle ≈ 0); the rest idle around 0.9.
                let v = if c == 5 {
                    0.01
                } else {
                    0.9 + 0.01 * (c as f64)
                };
                p = p.field(format!("_cpu{c}"), v);
            }
            db.write_point(p).unwrap();
        }
        db
    }

    #[test]
    fn finds_the_pegged_cpu() {
        let db = db_with_outlier();
        let found = anomaly_scan(&db, "kernel_percpu_cpu_idle", None, 2.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].field, "_cpu5");
        assert!(found[0].z_score < -2.0);
        assert!(found[0].value < 0.1);
        assert!(found[0].level_mean > 0.5);
    }

    #[test]
    fn uniform_level_reports_nothing() {
        let db = Database::new("t");
        for t in 0..10 {
            let mut p = Point::new("m").timestamp(t);
            for c in 0..6 {
                p = p.field(format!("_cpu{c}"), 1.0);
            }
            db.write_point(p).unwrap();
        }
        assert!(anomaly_scan(&db, "m", None, 2.0).is_empty());
    }

    #[test]
    fn too_few_peers_reports_nothing() {
        let db = Database::new("t");
        db.write_point(
            Point::new("m")
                .field("_cpu0", 1.0)
                .field("_cpu1", 99.0)
                .timestamp(0),
        )
        .unwrap();
        assert!(anomaly_scan(&db, "m", None, 1.0).is_empty());
        assert!(anomaly_scan(&db, "missing", None, 1.0).is_empty());
    }

    #[test]
    fn tag_filter_restricts_scan() {
        let db = Database::new("t");
        for t in 0..10 {
            let mut p = Point::new("m").tag("tag", "a").timestamp(t);
            for c in 0..4 {
                p = p.field(format!("_cpu{c}"), if c == 0 { 10.0 } else { 1.0 });
            }
            db.write_point(p).unwrap();
        }
        let hits = anomaly_scan(&db, "m", Some(("tag", "a")), 1.4);
        assert_eq!(hits.len(), 1);
        // A non-matching tag sees no data at all.
        assert!(anomaly_scan(&db, "m", Some(("tag", "zzz")), 1.4).is_empty());
    }
}
