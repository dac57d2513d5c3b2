//! The dashboard JSON model of Listing 1.
//!
//! ```json
//! { "id": 1,
//!   "panels": [
//!     { "id": 1,
//!       "targets": [
//!         { "datasource": {"type": "influxdb", "uid": "UUkm1881"},
//!           "measurement": "perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE_value",
//!           "params": "_cpu0" } ] } ],
//!   "time": {"from": "now-5m", "to": "now"} }
//! ```
//!
//! Dashboards are user-editable files: they round-trip through JSON, can
//! be saved for later sessions, and can be shared between users.

use serde::{Deserialize, Serialize};

/// A query target inside a panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Target {
    /// Datasource reference.
    pub datasource: Datasource,
    /// Measurement to plot.
    pub measurement: String,
    /// Field/instance selector (`_cpu0`).
    pub params: String,
}

/// The datasource reference (type + uid stored in the KB).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Datasource {
    /// Datasource type (`influxdb`).
    #[serde(rename = "type")]
    pub(crate) kind: String,
    /// Datasource uid.
    pub(crate) uid: String,
}

impl Datasource {
    /// The standard InfluxDB datasource with a uid from the KB.
    pub fn influx(uid: impl Into<String>) -> Self {
        Datasource {
            kind: "influxdb".into(),
            uid: uid.into(),
        }
    }
}

/// One panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Panel {
    /// Panel id.
    pub(crate) id: u32,
    /// Panel title (not in the minimal Listing 1, but Grafana accepts it).
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub title: String,
    /// Query targets.
    pub targets: Vec<Target>,
}

/// The dashboard time range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TimeRange {
    /// Range start (`now-5m`).
    pub(crate) from: String,
    /// Range end (`now`).
    pub(crate) to: String,
}

impl Default for TimeRange {
    fn default() -> Self {
        TimeRange {
            from: "now-5m".into(),
            to: "now".into(),
        }
    }
}

/// A dashboard document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dashboard {
    /// Dashboard id.
    pub(crate) id: u32,
    /// Dashboard title.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub title: String,
    /// Panels.
    pub panels: Vec<Panel>,
    /// Time range.
    pub(crate) time: TimeRange,
}

impl Dashboard {
    /// New empty dashboard.
    pub fn new(id: u32, title: impl Into<String>) -> Self {
        Dashboard {
            id,
            title: title.into(),
            panels: Vec::new(),
            time: TimeRange::default(),
        }
    }

    /// Add a panel (builder style).
    pub fn panel(mut self, title: impl Into<String>, targets: Vec<Target>) -> Self {
        let id = self.panels.len() as u32 + 1;
        self.panels.push(Panel {
            id,
            title: title.into(),
            targets,
        });
        self
    }

    /// Serialize to the shareable JSON file format.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("dashboard is serializable")
    }

    /// Load a dashboard from its JSON file content.
    pub fn from_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        serde_json::from_value(v.clone())
    }

    /// Total query targets across panels.
    pub fn target_count(&self) -> usize {
        self.panels.iter().map(|p| p.targets.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn listing1() -> serde_json::Value {
        json!({
            "id": 1,
            "panels": [
                {"id": 1,
                 "targets": [
                     {"datasource": {"type": "influxdb", "uid": "UUkm1881"},
                      "measurement": "perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE_value",
                      "params": "_cpu0"}]}],
            "time": {"from": "now-5m", "to": "now"}
        })
    }

    #[test]
    fn parses_listing1_verbatim() {
        let d = Dashboard::from_json(&listing1()).unwrap();
        assert_eq!(d.id, 1);
        assert_eq!(d.panels.len(), 1);
        let t = &d.panels[0].targets[0];
        assert_eq!(t.datasource.kind, "influxdb");
        assert_eq!(t.datasource.uid, "UUkm1881");
        assert_eq!(t.params, "_cpu0");
        assert_eq!(d.time.from, "now-5m");
    }

    #[test]
    fn roundtrip_preserves_document() {
        let d = Dashboard::from_json(&listing1()).unwrap();
        let j = d.to_json();
        let d2 = Dashboard::from_json(&j).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn builder_assigns_panel_ids() {
        let d = Dashboard::new(7, "test")
            .panel(
                "p1",
                vec![Target {
                    datasource: Datasource::influx("u"),
                    measurement: "m".into(),
                    params: "_cpu0".into(),
                }],
            )
            .panel("p2", vec![]);
        assert_eq!(d.panels[0].id, 1);
        assert_eq!(d.panels[1].id, 2);
        assert_eq!(d.target_count(), 1);
    }

    #[test]
    fn user_edit_simulation() {
        // "A dashboard can be modified by the users and saved for the next
        // sessions": edit the JSON directly, reload, and the change holds.
        let mut j = Dashboard::new(1, "x")
            .panel(
                "p",
                vec![Target {
                    datasource: Datasource::influx("u"),
                    measurement: "m".into(),
                    params: "_cpu0".into(),
                }],
            )
            .to_json();
        j["panels"][0]["targets"][0]["params"] = json!("_cpu5");
        let d = Dashboard::from_json(&j).unwrap();
        assert_eq!(d.panels[0].targets[0].params, "_cpu5");
    }
}
