//! Text rendering of dashboards: the Grafana stand-in's display path.
//!
//! Each panel asks the time-series database for its targets — one
//! multi-field query per measurement — and renders an ASCII sparkline per
//! column of the answer: enough for the examples to *show* live
//! dashboards in a terminal.

use crate::dashboard::model::{Dashboard, Panel, Target};
use pmove_tsdb::query::Projection;
use pmove_tsdb::{Database, Query};
use std::fmt::Write as _;

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a numeric series as a sparkline of `width` characters
/// (downsampled by bucket means).
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let buckets: Vec<f64> = (0..width.min(values.len()))
        .map(|b| {
            let lo = b * values.len() / width.min(values.len());
            let hi = ((b + 1) * values.len() / width.min(values.len())).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let min = buckets.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = buckets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    buckets
        .iter()
        .map(|v| {
            let norm = if max > min {
                (v - min) / (max - min)
            } else {
                0.5
            };
            SPARK[((norm * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// Render one panel against the database. `tag` optionally filters by an
/// observation id. Each run of targets on one measurement — every
/// generated panel is one run — is a single multi-field query, and each
/// target reads its own column of the answer.
pub fn render_panel(db: &Database, panel: &Panel, tag: Option<&str>, width: usize) -> String {
    let mut out = format!("── {} ──\n", panel.title);
    let mut series: Vec<f64> = Vec::new();
    let same_measurement = |a: &Target, b: &Target| a.measurement == b.measurement;
    for run in panel.targets.chunk_by(same_measurement) {
        // Structured query (no parser round-trip): the panel renders
        // through the same normalized cache key the engine uses.
        let frame = db.query_frame(&Query {
            projections: run
                .iter()
                .map(|t| Projection::Field(t.params.clone()))
                .collect(),
            measurement: run[0].measurement.clone(),
            tag_filters: tag
                .map(|v| vec![("tag".to_string(), v.to_string())])
                .unwrap_or_default(),
            time_start: None,
            time_end: None,
            group_by_time: None,
        });
        for (at, t) in run.iter().enumerate() {
            let Ok(frame) = &frame else {
                let _ = writeln!(out, "  {:<10} (no measurement)", t.params);
                continue;
            };
            series.clear();
            series.extend(frame.cols[at].iter().flatten());
            let _ = match series.last() {
                None => writeln!(out, "  {:<10} (no data)", t.params),
                Some(last) => writeln!(
                    out,
                    "  {:<10} {} last={last:.3e} n={}",
                    t.params,
                    sparkline(&series, width),
                    series.len()
                ),
            };
        }
    }
    out
}

/// Render a whole dashboard.
pub fn render_dashboard(db: &Database, dashboard: &Dashboard, tag: Option<&str>) -> String {
    let mut out = format!("══ {} ══\n", dashboard.title);
    for p in &dashboard.panels {
        out.push_str(&render_panel(db, p, tag, 40));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dashboard::model::{Dashboard, Datasource};
    use pmove_tsdb::Point;

    fn db_with_series() -> Database {
        let db = Database::new("test");
        for t in 0..20 {
            db.write_point(
                Point::new("m")
                    .tag("tag", "o1")
                    .field("_cpu0", (t as f64 * 0.7).sin() + 1.0)
                    .timestamp(t),
            )
            .unwrap();
        }
        db
    }

    fn dashboard() -> Dashboard {
        Dashboard::new(1, "test").panel(
            "m",
            vec![Target {
                datasource: Datasource::influx("u"),
                measurement: "m".into(),
                params: "_cpu0".into(),
            }],
        )
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[1.0], 10).chars().count(), 1);
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0], 4);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        // Flat series renders mid-height.
        let flat = sparkline(&[5.0; 8], 8);
        assert!(flat.chars().all(|c| c == SPARK[4]));
    }

    #[test]
    fn render_shows_data_and_stats() {
        let db = db_with_series();
        let out = render_dashboard(&db, &dashboard(), Some("o1"));
        assert!(out.contains("══ test ══"));
        assert!(out.contains("_cpu0"));
        assert!(out.contains("n=20"));
    }

    #[test]
    fn render_handles_missing_data() {
        let db = Database::new("empty");
        let out = render_dashboard(&db, &dashboard(), None);
        assert!(out.contains("no measurement"));
        let db = db_with_series();
        let out = render_dashboard(&db, &dashboard(), Some("other-tag"));
        assert!(out.contains("no data"));
    }

    /// One query per target through the row edge, as `render_panel` did
    /// before a panel became one query: the model of its output.
    fn per_target_model(db: &Database, panel: &Panel, tag: Option<&str>, width: usize) -> String {
        let mut out = format!("── {} ──\n", panel.title);
        let filter = tag.map(|v| format!(" WHERE tag='{v}'"));
        for t in &panel.targets {
            let q = format!("SELECT \"{}\" FROM \"{}\"", t.params, t.measurement);
            let Ok(r) = db.query(&(q + filter.as_deref().unwrap_or(""))) else {
                out.push_str(&format!("  {:<10} (no measurement)\n", t.params));
                continue;
            };
            let series: Vec<f64> = r.rows.iter().filter_map(|r| r.values[&t.params]).collect();
            match series.last() {
                None => out.push_str(&format!("  {:<10} (no data)\n", t.params)),
                Some(last) => out.push_str(&format!(
                    "  {:<10} {} last={:.3e} n={}\n",
                    t.params,
                    sparkline(&series, width),
                    last,
                    series.len()
                )),
            }
        }
        out
    }

    #[test]
    fn a_panel_is_one_query_per_run_and_prints_what_per_target_queries_did() {
        let db = db_with_series();
        for t in 0..3 {
            let p = Point::new("m").tag("tag", "o2").field("_cpu1", t as f64);
            db.write_point(p.timestamp(100 + t)).unwrap();
            let p = Point::new("k")
                .tag("tag", "o1")
                .field("value", 7.5 - t as f64);
            db.write_point(p.timestamp(t)).unwrap();
        }
        let target = |measurement: &str, params: &str| Target {
            datasource: Datasource::influx("u"),
            measurement: measurement.into(),
            params: params.into(),
        };
        // Two measurements interleaved, a field targeted twice, a field the
        // measurement never saw beside a measurement that does not exist,
        // a field only another tag has.
        let d = Dashboard::new(1, "mixed").panel(
            "mixed",
            vec![
                target("m", "_cpu0"),
                target("k", "value"),
                target("m", "_cpu0"),
                target("m", "nosuch"),
                target("ghost", "x"),
                target("m", "_cpu1"),
            ],
        );
        let panel = &d.panels[0];
        for tag in [None, Some("o1"), Some("o2"), Some("nobody")] {
            let got = render_panel(&db, panel, tag, 12);
            assert_eq!(got, per_target_model(&db, panel, tag, 12), "tag {tag:?}");
            // Served from the cache, the same text again.
            assert_eq!(got, render_panel(&db, panel, tag, 12), "tag {tag:?}");
        }
        let lines: Vec<String> = render_panel(&db, panel, Some("o1"), 12)
            .lines()
            .map(|l| l.split_whitespace().last().unwrap().to_string())
            .collect();
        assert_eq!(lines.join(" "), "── n=20 n=3 n=20 data) measurement) data)");

        // Runs [m] [k] [m m] [ghost] [m]: four answers cached, the error not.
        db.set_query_cache_capacity(0);
        db.set_query_cache_capacity(64);
        render_panel(&db, panel, None, 12);
        assert_eq!(db.query_cache_len(), 4);
        // A generated panel — one measurement — is one query.
        let generated = Dashboard::new(2, "m").panel(
            "m",
            vec![
                target("m", "_cpu0"),
                target("m", "_cpu1"),
                target("m", "_cpu0"),
            ],
        );
        db.set_query_cache_capacity(0);
        db.set_query_cache_capacity(64);
        render_panel(&db, &generated.panels[0], None, 12);
        assert_eq!(db.query_cache_len(), 1);
    }
}
