//! Series identity: a series is one measurement + one canonical tag set.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Opaque, dense series identifier assigned at first write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SeriesId(pub u64);

/// Canonical series key: measurement plus sorted `tag=value` pairs.
///
/// Two points with the same measurement and tag set belong to the same
/// series regardless of insertion order of their tags, matching InfluxDB
/// semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SeriesKey {
    /// Measurement this series belongs to.
    pub measurement: String,
    /// Canonically ordered tag set.
    pub tags: BTreeMap<String, String>,
}

impl SeriesKey {
    /// Build a key from a measurement and any iterable of tag pairs.
    pub fn new<I, K, V>(measurement: impl Into<String>, tags: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        SeriesKey {
            measurement: measurement.into(),
            tags: tags
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }

    /// Human-readable `measurement,k=v,k=v` form (stable because of BTreeMap).
    pub fn canonical(&self) -> String {
        let mut s = self.measurement.clone();
        for (k, v) in &self.tags {
            s.push(',');
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_order_independent() {
        let a = SeriesKey::new("m", [("b", "2"), ("a", "1")]);
        let b = SeriesKey::new("m", [("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.canonical(), "m,a=1,b=2");
    }
}
