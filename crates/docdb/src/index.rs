//! Hash indexes over dotted document paths.
//!
//! The KB collection is queried heavily by `@id` and `@type`; indexes turn
//! those equality lookups from collection scans into hash probes.

use crate::document::get_path;
use serde_json::Value;
use std::collections::{BTreeSet, HashMap};

/// Index over one dotted path. Values are keyed by their canonical JSON
/// serialization, which is exact for strings/numbers/bools.
#[derive(Debug, Default)]
pub(crate) struct PathIndex {
    path: String,
    postings: HashMap<String, BTreeSet<usize>>,
}

impl PathIndex {
    /// New empty index over `path`.
    pub(crate) fn new(path: impl Into<String>) -> Self {
        PathIndex {
            path: path.into(),
            postings: HashMap::new(),
        }
    }

    /// Indexed path.
    pub(crate) fn path(&self) -> &str {
        &self.path
    }

    fn key_of(value: &Value) -> String {
        value.to_string()
    }

    /// Index a document stored at `slot`.
    pub(crate) fn add(&mut self, slot: usize, doc: &Value) {
        if let Some(v) = get_path(doc, &self.path) {
            self.postings
                .entry(Self::key_of(v))
                .or_default()
                .insert(slot);
        }
    }

    /// Remove a document from the index.
    pub(crate) fn remove(&mut self, slot: usize, doc: &Value) {
        if let Some(v) = get_path(doc, &self.path) {
            let key = Self::key_of(v);
            if let Some(set) = self.postings.get_mut(&key) {
                set.remove(&slot);
                if set.is_empty() {
                    self.postings.remove(&key);
                }
            }
        }
    }

    /// Slots whose document holds exactly `value` at the indexed path.
    pub(crate) fn lookup(&self, value: &Value) -> Option<&BTreeSet<usize>> {
        self.postings.get(&Self::key_of(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn add_lookup_remove() {
        let mut idx = PathIndex::new("@type");
        idx.add(0, &json!({"@type": "Interface"}));
        idx.add(1, &json!({"@type": "Interface"}));
        idx.add(2, &json!({"@type": "Telemetry"}));
        idx.add(3, &json!({"other": 1})); // no value at path: not indexed
        assert_eq!(idx.lookup(&json!("Interface")).unwrap().len(), 2);
        assert_eq!(idx.lookup(&json!("Telemetry")).unwrap().len(), 1);
        assert!(idx.lookup(&json!("Command")).is_none());
        idx.remove(1, &json!({"@type": "Interface"}));
        assert_eq!(idx.lookup(&json!("Interface")).unwrap().len(), 1);
    }

    #[test]
    fn nested_path_and_numeric_values() {
        let mut idx = PathIndex::new("a.b");
        idx.add(7, &json!({"a": {"b": 42}}));
        assert!(idx.lookup(&json!(42)).unwrap().contains(&7));
        // 42 and 42.0 serialize differently and are distinct keys, documented
        // behaviour of the hash index (range queries bypass indexes anyway).
        assert!(idx.lookup(&json!(42.0)).is_none());
    }
}
