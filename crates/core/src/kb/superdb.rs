//! SUPERDB — the global performance database (paper §III-E).
//!
//! Cloud-hosted MongoDB + InfluxDB instances accumulating KBs and
//! observations from many systems. Observations arrive in two forms:
//! `TSObservationInterface` (the raw series is uploaded) and
//! `AGGObservationInterface` (statistical summaries, for volume control).
//! Users with a local P-MoVE instance can query across machines (the
//! cross-machine level views of Fig. 2c/d); without one, they can only
//! download selected data for ML training.

use crate::error::PmoveError;
use crate::kb::observation::{AggObservation, ObservationInterface};
use crate::kb::{store, KnowledgeBase};
use pmove_docdb::Database as DocDb;
use pmove_tsdb::aggregate::Summary;
use pmove_tsdb::{Database as TsDb, Point, Query};
use serde_json::json;

/// The global database pair.
pub struct SuperDb {
    /// Global document database (KBs, observation entries).
    pub doc: DocDb,
    /// Global time-series database (TS observations).
    pub ts: TsDb,
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

    /// Annotate a machine's data as stale from `since_s` on: the cluster
    /// supervisor calls this when it quarantines a node, so global views
    /// stop presenting dead-node twins as live. Re-marking updates the
    /// timestamp.
    pub fn mark_stale(&self, machine: &str, since_s: f64) -> Result<(), PmoveError> {
        let col = self.doc.collection("staleness");
        col.delete_many(&json!({ "_id": machine }))?;
        col.insert_one(json!({
            "_id": machine,
            "machine": machine,
            "stale_since_s": since_s,
        }))?;
        Ok(())
    }

    /// Clear a machine's staleness annotation (node rejoined).
    pub fn clear_stale(&self, machine: &str) -> Result<(), PmoveError> {
        self.doc
            .collection("staleness")
            .delete_many(&json!({ "_id": machine }))?;
        Ok(())
    }

    /// When the machine is marked stale, the virtual time its data went
    /// stale at.
    pub fn staleness(&self, machine: &str) -> Option<f64> {
        self.doc
            .collection("staleness")
            .find_one(&json!({ "_id": machine }))
            .ok()
            .flatten()
            .and_then(|d| d["stale_since_s"].as_f64())
    }

    /// Machines currently annotated as stale.
    pub fn stale_machines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .doc
            .collection("staleness")
            .all()
            .into_iter()
            .filter_map(|d| d["machine"].as_str().map(str::to_string))
            .collect();
        out.sort();
        out
    }

    /// Cross-machine level view: interfaces of one component type from
    /// every uploaded machine (the SUPERDB power behind Fig. 2d). Machines
    /// marked stale are excluded — their twins describe hardware nobody is
    /// monitoring; [`SuperDb::staleness`] explains the exclusion.
    pub fn global_level_view(
        &self,
        component_type: &str,
    ) -> Result<Vec<(String, pmove_jsonld::Interface)>, PmoveError> {
        let mut out = Vec::new();
        for machine in self.machines() {
            if self.staleness(&machine).is_some() {
                continue;
            }
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
    /// one panel per (machine, measurement), targets per field.
    pub fn global_level_dashboard(
        &self,
        component_type: &str,
    ) -> Result<Option<crate::dashboard::Dashboard>, PmoveError> {
        use crate::dashboard::model::{Dashboard, Datasource, Target};
        let twins = self.global_level_view(component_type)?;
        if twins.is_empty() {
            return Ok(None);
        }
        let mut d = Dashboard::new(4, format!("global level: {component_type}"));
        // Group telemetry by (machine, db measurement).
        use std::collections::BTreeMap;
        let mut panels: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
        for (machine, iface) in &twins {
            for t in iface.telemetry() {
                let fields = panels
                    .entry((machine.clone(), t.db_name.clone()))
                    .or_default();
                if let Some(f) = &t.field_name {
                    if !fields.contains(f) {
                        fields.push(f.clone());
                    }
                }
            }
        }
        for ((machine, measurement), fields) in panels {
            let targets = if fields.is_empty() {
                vec![Target {
                    datasource: Datasource::influx("superdb"),
                    measurement: measurement.clone(),
                    params: "value".into(),
                }]
            } else {
                fields
                    .into_iter()
                    .map(|f| Target {
                        datasource: Datasource::influx("superdb"),
                        measurement: measurement.clone(),
                        params: f,
                    })
                    .collect()
            };
            d = d.panel(format!("{machine}: {measurement}"), targets);
        }
        Ok(Some(d))
    }

    /// Download raw rows for ML training (the no-local-instance path):
    /// the values of one measurement field across machines.
    pub fn download_training_series(
        &self,
        measurement: &str,
        field: &str,
    ) -> Result<Vec<(i64, f64)>, PmoveError> {
        let q = Query::parse(&format!("SELECT \"{field}\" FROM \"{measurement}\""))?;
        Ok(self.ts.query_frame(&q)?.column_series(field))
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
        // The machine tag is stamped.
        assert_eq!(s.ts.tag_values("m", "machine"), vec!["icl".to_string()]);
        assert_eq!(s.doc.collection("ts_observations").len(), 1);
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
    fn stale_machines_drop_out_of_global_views() {
        let s = SuperDb::new();
        s.upload_kb(&kb("icl")).unwrap();
        s.upload_kb(&kb("zen3")).unwrap();
        assert_eq!(s.global_level_view("socket").unwrap().len(), 2);
        assert!(s.staleness("icl").is_none());

        s.mark_stale("icl", 42.5).unwrap();
        let sockets = s.global_level_view("socket").unwrap();
        assert_eq!(sockets.len(), 1);
        assert_eq!(sockets[0].0, "zen3");
        assert_eq!(s.staleness("icl"), Some(42.5));
        assert_eq!(s.stale_machines(), vec!["icl".to_string()]);
        // The machine itself stays in the catalog; only views filter it.
        assert_eq!(s.machines(), vec!["icl".to_string(), "zen3".to_string()]);
        // Re-marking updates the annotation instead of erroring.
        s.mark_stale("icl", 60.0).unwrap();
        assert_eq!(s.staleness("icl"), Some(60.0));

        s.clear_stale("icl").unwrap();
        assert!(s.staleness("icl").is_none());
        assert_eq!(s.global_level_view("socket").unwrap().len(), 2);
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
        assert_eq!(s.doc.collection("agg_observations").len(), 1);
    }
}
