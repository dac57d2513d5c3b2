//! Observation and Benchmark interfaces — the entries P-MoVE appends to
//! the KB for every performance event (paper §III-C, Listings 2 and 3).

use pmove_tsdb::aggregate::Summary;
use serde_json::{json, Value};

/// Reference to one sampled metric: the DB measurement plus the fields
/// (instances) that carry data for this observation.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRef {
    /// Measurement name in the time-series DB.
    pub db_name: String,
    /// Field names with data (`_cpu0`, `_node1`, ...).
    pub fields: Vec<String>,
}

/// An `ObservationInterface` entry: encodes sampled events, the executed
/// command, generated affinity, time, and the unique observation id that
/// tags the time-series data (Listing 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationInterface {
    /// Unique observation id (the `tag` in InfluxDB).
    pub id: String,
    /// Machine the observation ran on.
    pub(crate) machine: String,
    /// Executed command line.
    pub(crate) command: String,
    /// Pinning strategy name (`balanced`, `compact`, ...).
    pub(crate) pinning: String,
    /// OS thread indices the kernel was bound to.
    pub(crate) affinity: Vec<u32>,
    /// Virtual start time (seconds).
    pub(crate) start_s: f64,
    /// Virtual end time (seconds).
    pub(crate) end_s: f64,
    /// Sampling frequency used.
    pub(crate) freq_hz: f64,
    /// Sampled metrics.
    pub metrics: Vec<MetricRef>,
    /// Report generated on the fly before appending to the KB.
    pub(crate) report: Value,
}

impl ObservationInterface {
    /// Serialize in the Listing-2 document shape.
    pub fn to_json(&self) -> Value {
        json!({
            "@id": format!("dtmi:dt:{}:observation:{};1",
                           self.machine, self.id.replace('-', "")),
            "@type": "ObservationInterface",
            "observation": self.id,
            "machine": self.machine,
            "command": self.command,
            "pinning": self.pinning,
            "affinity": self.affinity,
            "time": {"start": self.start_s, "end": self.end_s},
            "frequency": self.freq_hz,
            "metrics": self.metrics.iter().map(|m| json!({
                "DBName": m.db_name,
                "fields": m.fields,
            })).collect::<Vec<_>>(),
            "report": self.report,
        })
    }

    /// Auto-generate the recall queries (Listing 3): one `SELECT` per
    /// metric, fields quoted, filtered by the observation tag.
    pub fn queries(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let fields = m
                    .fields
                    .iter()
                    .map(|f| format!("\"{f}\""))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "SELECT {fields} FROM \"{}\" WHERE tag='{}'",
                    m.db_name, self.id
                )
            })
            .collect()
    }

    /// Observation duration in seconds.
    pub(crate) fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Aggregated observation for SUPERDB (`AGGObservationInterface`,
/// paper §III-E): statistical summaries instead of raw series.
#[derive(Debug, Clone, PartialEq)]
pub struct AggObservation {
    /// Source observation id.
    pub(crate) id: String,
    /// Machine key.
    pub(crate) machine: String,
    /// Per-(metric, field) summaries.
    pub(crate) summaries: Vec<(String, String, Summary)>,
}

impl AggObservation {
    /// Serialize for the global database.
    pub(crate) fn to_json(&self) -> Value {
        json!({
            "@type": "AGGObservationInterface",
            "observation": self.id,
            "machine": self.machine,
            "summaries": self.summaries.iter().map(|(m, f, s)| json!({
                "DBName": m,
                "field": f,
                "count": s.count,
                "min": s.min,
                "max": s.max,
                "mean": s.mean,
                "stddev": s.stddev,
                "sum": s.sum,
            })).collect::<Vec<_>>(),
        })
    }
}

/// One result row of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Metric name (`triad_bandwidth`, `hpcg_gflops`, `L1_bw_gbps`).
    pub(crate) name: String,
    /// Value.
    pub(crate) value: f64,
    /// Unit string.
    pub(crate) unit: String,
}

/// A `BenchmarkInterface` entry recording CARM/STREAM/HPCG results
/// (paper §III-C).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkInterface {
    /// Entry id.
    pub id: String,
    /// Machine key.
    pub machine: String,
    /// Benchmark name (`carm`, `stream`, `hpcg`).
    pub benchmark: String,
    /// Compiler used on the target (`gcc`, `icc` — the paper compiles on
    /// the target when possible).
    pub compiler: String,
    /// Result rows.
    pub results: Vec<BenchmarkResult>,
}

impl BenchmarkInterface {
    /// Serialize for the KB.
    pub(crate) fn to_json(&self) -> Value {
        json!({
            "@type": "BenchmarkInterface",
            "id": self.id,
            "machine": self.machine,
            "benchmark": self.benchmark,
            "compiler": self.compiler,
            "results": self.results.iter().map(|r| json!({
                "name": r.name, "value": r.value, "unit": r.unit,
            })).collect::<Vec<_>>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> ObservationInterface {
        ObservationInterface {
            id: "278e26c2-3fd3-45e4-862b-5646dc9e7aa0".into(),
            machine: "skx".into(),
            command: "triad -n 1048576 -t 4".into(),
            pinning: "numa_balanced".into(),
            affinity: vec![0, 1, 22, 23],
            start_s: 10.0,
            end_s: 12.5,
            freq_hz: 8.0,
            metrics: vec![
                MetricRef {
                    db_name: "kernel_percpu_cpu_idle".into(),
                    fields: vec![
                        "_cpu0".into(),
                        "_cpu1".into(),
                        "_cpu22".into(),
                        "_cpu23".into(),
                    ],
                },
                MetricRef {
                    db_name: "perfevent_hwcounters_RAPL_ENERGY_PKG".into(),
                    fields: vec!["_node0".into(), "_node1".into()],
                },
            ],
            report: json!({"mean_power_w": 155.2}),
        }
    }

    #[test]
    fn queries_match_listing3_shape() {
        let q = obs().queries();
        assert_eq!(q.len(), 2);
        assert_eq!(
            q[0],
            "SELECT \"_cpu0\", \"_cpu1\", \"_cpu22\", \"_cpu23\" FROM \"kernel_percpu_cpu_idle\" \
             WHERE tag='278e26c2-3fd3-45e4-862b-5646dc9e7aa0'"
        );
        assert!(q[1].contains("RAPL_ENERGY_PKG"));
        assert!(q[1].contains("\"_node0\", \"_node1\""));
    }

    #[test]
    fn json_shape_carries_metadata() {
        let j = obs().to_json();
        assert_eq!(j["@type"], json!("ObservationInterface"));
        assert_eq!(j["pinning"], json!("numa_balanced"));
        assert_eq!(j["affinity"], json!([0, 1, 22, 23]));
        assert_eq!(j["report"]["mean_power_w"], json!(155.2));
        assert!(j["@id"]
            .as_str()
            .unwrap()
            .starts_with("dtmi:dt:skx:observation:"));
    }

    #[test]
    fn duration() {
        assert!((obs().duration_s() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn agg_observation_serializes_summaries() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        let agg = AggObservation {
            id: "x".into(),
            machine: "icl".into(),
            summaries: vec![("m".into(), "_cpu0".into(), s)],
        };
        let j = agg.to_json();
        assert_eq!(j["summaries"][0]["mean"], json!(2.0));
        assert_eq!(j["summaries"][0]["count"], json!(3));
    }

    #[test]
    fn benchmark_interface_to_json() {
        let b = BenchmarkInterface {
            id: "b1".into(),
            machine: "csl".into(),
            benchmark: "stream".into(),
            compiler: "gcc".into(),
            results: vec![BenchmarkResult {
                name: "triad_bandwidth".into(),
                value: 1.1e11,
                unit: "B/s".into(),
            }],
        };
        assert_eq!(b.to_json()["benchmark"], json!("stream"));
    }
}
