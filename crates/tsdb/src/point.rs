//! The write unit of the database: a measurement name, a tag set, a field
//! set, and a timestamp.

use crate::value::FieldValue;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A single data point, equivalent to one line of InfluxDB line protocol.
///
/// Tags are indexed dimensions (observation id, host name); fields carry the
/// sampled values (`_cpu0`, `_node1`, ...). P-MoVE links points back to KB
/// entries through the `tag` tag carrying the observation UUID.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Measurement name, e.g. `perfevent_hwcounters_fp_arith_scalar_double`.
    pub measurement: String,
    /// Indexed tag set. `BTreeMap` so the serialized tag key is canonical.
    pub tags: BTreeMap<String, String>,
    /// Field set; at least one field is required for a write to succeed.
    pub fields: BTreeMap<String, FieldValue>,
    /// Timestamp in nanoseconds since the (virtual) epoch.
    pub timestamp: i64,
}

impl Point {
    /// Start building a point for `measurement` at timestamp 0.
    pub fn new(measurement: impl Into<String>) -> Self {
        Point {
            measurement: measurement.into(),
            tags: BTreeMap::new(),
            fields: BTreeMap::new(),
            timestamp: 0,
        }
    }

    /// Attach a tag (builder style).
    pub fn tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.insert(key.into(), value.into());
        self
    }

    /// Attach a field (builder style).
    pub fn field(mut self, key: impl Into<String>, value: impl Into<FieldValue>) -> Self {
        self.fields.insert(key.into(), value.into());
        self
    }

    /// Set the timestamp (builder style).
    pub fn timestamp(mut self, ts: i64) -> Self {
        self.timestamp = ts;
        self
    }

    /// Number of field values carried — each counts as one "data point" in
    /// the throughput accounting of Table III.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Approximate serialized size in bytes (used by the network model).
    pub fn wire_size(&self) -> usize {
        let tag_len: usize = self.tags.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
        let field_len: usize = self
            .fields
            .iter()
            .map(|(k, v)| k.len() + v.to_line_protocol().len() + 2)
            .sum();
        self.measurement.len() + tag_len + field_len + 20 // + timestamp digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Point {
        Point::new("cpu")
            .tag("host", "skx")
            .field("_cpu0", 1.0)
            .field("_cpu1", 0.0)
            .timestamp(123)
    }

    #[test]
    fn builder_accumulates() {
        let p = sample();
        assert_eq!(p.measurement, "cpu");
        assert_eq!(p.tags["host"], "skx");
        assert_eq!(p.field_count(), 2);
        assert_eq!(p.timestamp, 123);
    }

    #[test]
    fn wire_size_is_positive_and_monotone() {
        let small = Point::new("m").field("a", 1.0);
        let big = Point::new("m")
            .field("a", 1.0)
            .field("bbbbbbbb", 2.0)
            .tag("t", "vvvvv");
        assert!(small.wire_size() > 0);
        assert!(big.wire_size() > small.wire_size());
    }
}
