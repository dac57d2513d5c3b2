//! SUPERDB — the global performance database (paper §III-E).
//!
//! Cloud-hosted MongoDB + InfluxDB instances accumulating KBs and
//! observations from many systems. Observations arrive in two forms:
//! `TSObservationInterface` (the raw series is uploaded) and
//! `AGGObservationInterface` (statistical summaries, for volume control).
//! Users with a local P-MoVE instance can query across machines (the
//! cross-machine level views of Fig. 2c/d); without one, they can only
//! download selected data for ML training.

use crate::dashboard::{gen, Dashboard};
use crate::error::PmoveError;
use crate::kb::observation::{AggObservation, ObservationInterface};
use crate::kb::{store, KnowledgeBase};
use pmove_docdb::Database as DocDb;
use pmove_tsdb::aggregate::Summary;
use pmove_tsdb::query::Projection;
use pmove_tsdb::{Database as TsDb, Point, Query};
use serde_json::json;

/// The global database pair.
pub struct SuperDb {
    /// Global document database (KBs, observation entries).
    pub(crate) doc: DocDb,
    /// Global time-series database (TS observations).
    pub(crate) ts: TsDb,
}

impl Default for SuperDb {
    fn default() -> Self {
        Self::new()
    }
}

impl SuperDb {
    /// Fresh global instance.
    pub fn new() -> Self {
        SuperDb {
            doc: DocDb::new("superdb"),
            ts: TsDb::new("superdb"),
        }
    }

    /// Upload a machine's KB (idempotent per machine).
    pub fn upload_kb(&self, kb: &KnowledgeBase) -> Result<usize, PmoveError> {
        store::insert_kb(&self.doc, kb)
    }

    /// Upload an observation **with** its raw time series
    /// (`TSObservationInterface`). `series` carries the points recalled
    /// from the local instance.
    pub fn upload_ts_observation(
        &self,
        obs: &ObservationInterface,
        series: Vec<Point>,
    ) -> Result<usize, PmoveError> {
        let col = self.doc.collection("ts_observations");
        let mut doc = obs.to_json();
        doc["@type"] = json!("TSObservationInterface");
        doc["_id"] = json!(format!("{}::{}", obs.machine, obs.id));
        col.insert_one(doc)?;
        let mut stored = 0;
        for mut p in series {
            p.tags.insert("machine".into(), obs.machine.clone());
            if self.ts.write_point(p).is_ok() {
                stored += 1;
            }
        }
        Ok(stored)
    }

    /// Upload only aggregates (`AGGObservationInterface`).
    pub fn upload_agg_observation(&self, agg: &AggObservation) -> Result<(), PmoveError> {
        let col = self.doc.collection("agg_observations");
        let mut doc = agg.to_json();
        doc["_id"] = json!(format!("{}::{}", agg.machine, agg.id));
        col.insert_one(doc)?;
        Ok(())
    }

    /// Summarize a recalled series into an AGG observation.
    pub fn aggregate(
        obs: &ObservationInterface,
        series: &[(String, String, Vec<f64>)],
    ) -> AggObservation {
        AggObservation {
            id: obs.id.clone(),
            machine: obs.machine.clone(),
            summaries: series
                .iter()
                .filter_map(|(m, f, values)| Summary::of(values).map(|s| (m.clone(), f.clone(), s)))
                .collect(),
        }
    }

    /// Machines known to the global database.
    pub fn machines(&self) -> Vec<String> {
        store::machines(&self.doc)
    }

    /// Cross-machine level view: interfaces of one component type from
    /// every uploaded machine, in machine order (the SUPERDB power behind
    /// Fig. 2d).
    pub fn global_level_view(
        &self,
        component_type: &str,
    ) -> Result<Vec<(String, pmove_jsonld::Interface)>, PmoveError> {
        let mut out = Vec::new();
        for machine in self.machines() {
            for iface in store::load_interfaces(&self.doc, &machine)? {
                if iface.component_type == component_type {
                    out.push((machine.clone(), iface));
                }
            }
        }
        Ok(out)
    }

    /// Cross-machine level-view dashboard (Fig. 2d: "the level-view
    /// dashboards for different processes ... on different servers"):
    /// per machine, one panel per measurement, targets per field, all on
    /// the `superdb` datasource.
    pub fn global_level_dashboard(
        &self,
        component_type: &str,
    ) -> Result<Option<Dashboard>, PmoveError> {
        let twins = self.global_level_view(component_type)?;
        let mut d = Dashboard::new(4, format!("global level: {component_type}"));
        // The view is in machine order, so each machine's twins are one run.
        for run in twins.chunk_by(|a, b| a.0 == b.0) {
            let interfaces: Vec<_> = run.iter().map(|(_, iface)| iface).collect();
            for (measurement, targets) in gen::targets_for("superdb", &interfaces) {
                d = d.panel(format!("{}: {measurement}", run[0].0), targets);
            }
        }
        Ok((!twins.is_empty()).then_some(d))
    }

    /// Download raw rows for ML training (the no-local-instance path):
    /// the values of one measurement field across machines.
    pub fn download_training_series(
        &self,
        measurement: &str,
        field: &str,
    ) -> Result<Vec<(i64, f64)>, PmoveError> {
        // Built, not parsed: any name is one field of one measurement, so
        // the answer is exactly that one column.
        let q = Query {
            projections: vec![Projection::Field(field.to_string())],
            measurement: measurement.to_string(),
            tag_filters: Vec::new(),
            time_start: None,
            time_end: None,
            group_by_time: None,
        };
        let frame = self.ts.query_frame(&q)?;
        let cells = frame.ts.iter().zip(&frame.cols[0]);
        Ok(cells.filter_map(|(&ts, v)| v.map(|x| (ts, x))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::builder::build_kb;
    use crate::kb::observation::MetricRef;
    use crate::probe::ProbeReport;
    use pmove_hwsim::Machine;

    fn kb(key: &str) -> KnowledgeBase {
        build_kb(&ProbeReport::collect(&Machine::preset(key).unwrap())).unwrap()
    }

    fn obs(machine: &str) -> ObservationInterface {
        ObservationInterface {
            id: format!("{machine}-obs"),
            machine: machine.into(),
            command: "spmv".into(),
            pinning: "balanced".into(),
            affinity: vec![0],
            start_s: 0.0,
            end_s: 1.0,
            freq_hz: 8.0,
            metrics: vec![MetricRef {
                db_name: "m".into(),
                fields: vec!["_cpu0".into()],
            }],
            report: json!({}),
        }
    }

    #[test]
    fn multi_machine_upload_and_global_view() {
        let s = SuperDb::new();
        s.upload_kb(&kb("icl")).unwrap();
        s.upload_kb(&kb("zen3")).unwrap();
        assert_eq!(s.machines(), vec!["icl".to_string(), "zen3".to_string()]);
        let sockets = s.global_level_view("socket").unwrap();
        assert_eq!(sockets.len(), 2);
        let threads = s.global_level_view("thread").unwrap();
        assert_eq!(threads.len(), 16 + 32);
    }

    #[test]
    fn ts_observation_carries_series() {
        let s = SuperDb::new();
        let series: Vec<Point> = (0..5)
            .map(|t| {
                Point::new("m")
                    .tag("tag", "icl-obs")
                    .field("_cpu0", t as f64)
                    .timestamp(t)
            })
            .collect();
        let stored = s.upload_ts_observation(&obs("icl"), series).unwrap();
        assert_eq!(stored, 5);
        let got = s.download_training_series("m", "_cpu0").unwrap();
        assert_eq!(got.len(), 5);
        // A name that would break out of a query's quotes is still the
        // one field asked for.
        for t in 0..3 {
            let p = Point::new("m").field("a\", \"_cpu0", 7.0).timestamp(t);
            s.ts.write_point(p).unwrap();
        }
        let got = s.download_training_series("m", "a\", \"_cpu0").unwrap();
        assert_eq!(got, vec![(0, 7.0), (1, 7.0), (2, 7.0)]);
        // The machine tag is stamped.
        let tagged =
            s.ts.query("SELECT \"_cpu0\" FROM \"m\" WHERE machine='icl'");
        assert_eq!(tagged.unwrap().rows.len(), 5);
        assert_eq!(s.doc.collection("ts_observations").all().len(), 1);
    }

    #[test]
    fn global_level_dashboard_spans_machines() {
        let s = SuperDb::new();
        s.upload_kb(&kb("icl")).unwrap();
        s.upload_kb(&kb("zen3")).unwrap();
        let d = s
            .global_level_dashboard("numanode")
            .unwrap()
            .expect("dashboard exists");
        // Panels are prefixed per machine (the Fig. 2d comparison view).
        assert!(d.panels.iter().any(|p| p.title.starts_with("icl: ")));
        assert!(d.panels.iter().any(|p| p.title.starts_with("zen3: ")));
        // zen3 exposes RAPL DRAM energy; icl does not.
        assert!(d
            .panels
            .iter()
            .any(|p| p.title == "zen3: perfevent_hwcounters_RAPL_ENERGY_DRAM"));
        assert!(!d
            .panels
            .iter()
            .any(|p| p.title == "icl: perfevent_hwcounters_RAPL_ENERGY_DRAM"));
        assert!(s.global_level_dashboard("gpu").unwrap().is_none());
    }

    #[test]
    fn agg_observation_summarizes() {
        let s = SuperDb::new();
        let o = obs("zen3");
        let agg = SuperDb::aggregate(
            &o,
            &[
                ("m".into(), "_cpu0".into(), vec![1.0, 2.0, 3.0]),
                ("m".into(), "_cpu1".into(), vec![]),
            ],
        );
        // Empty series yields no summary.
        assert_eq!(agg.summaries.len(), 1);
        assert_eq!(agg.summaries[0].2.mean, 2.0);
        s.upload_agg_observation(&agg).unwrap();
        assert_eq!(s.doc.collection("agg_observations").all().len(), 1);
    }
}
