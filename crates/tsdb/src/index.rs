//! Inverted tag index: `(tag key, tag value) -> set of series ids`.
//!
//! InfluxDB keeps an in-memory inverted index so `WHERE tag = 'v'` does not
//! scan every series; the automatically generated KB queries of the paper
//! (Listing 3) filter on the observation UUID tag, so this index is on the
//! hot path of every recall operation.

use crate::series::SeriesId;
use std::collections::{BTreeSet, HashMap};

/// Inverted index over tag pairs.
#[derive(Debug, Default)]
pub struct TagIndex {
    postings: HashMap<(String, String), BTreeSet<SeriesId>>,
    keys: HashMap<String, BTreeSet<String>>,
}

impl TagIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a series under one tag pair.
    pub fn insert(&mut self, key: &str, value: &str, series: SeriesId) {
        self.postings
            .entry((key.to_string(), value.to_string()))
            .or_default()
            .insert(series);
        self.keys
            .entry(key.to_string())
            .or_default()
            .insert(value.to_string());
    }

    /// Remove a series from one tag pair (used by retention when a series
    /// becomes empty).
    pub fn remove(&mut self, key: &str, value: &str, series: SeriesId) {
        if let Some(set) = self.postings.get_mut(&(key.to_string(), value.to_string())) {
            set.remove(&series);
            if set.is_empty() {
                self.postings.remove(&(key.to_string(), value.to_string()));
                if let Some(values) = self.keys.get_mut(key) {
                    values.remove(value);
                    if values.is_empty() {
                        self.keys.remove(key);
                    }
                }
            }
        }
    }

    /// Series carrying `key=value`.
    pub fn lookup(&self, key: &str, value: &str) -> Option<&BTreeSet<SeriesId>> {
        self.postings.get(&(key.to_string(), value.to_string()))
    }

    /// Intersect postings for several constraints. `None` constraint list
    /// semantics: an empty list yields `None` (caller should scan instead).
    pub fn lookup_all(&self, constraints: &[(String, String)]) -> Option<BTreeSet<SeriesId>> {
        let mut iter = constraints.iter();
        let first = iter.next()?;
        let mut acc = self.lookup(&first.0, &first.1).cloned().unwrap_or_default();
        for (k, v) in iter {
            match self.lookup(k, v) {
                Some(set) => acc = acc.intersection(set).copied().collect(),
                None => return Some(BTreeSet::new()),
            }
            if acc.is_empty() {
                break;
            }
        }
        Some(acc)
    }

    /// All values observed for a tag key (for `SHOW TAG VALUES`).
    pub fn values_for_key(&self, key: &str) -> Vec<String> {
        self.keys
            .get(key)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of distinct (key, value) postings.
    pub fn cardinality(&self) -> usize {
        self.postings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> TagIndex {
        let mut i = TagIndex::new();
        i.insert("host", "skx", SeriesId(1));
        i.insert("host", "skx", SeriesId(2));
        i.insert("host", "icl", SeriesId(3));
        i.insert("cpu", "0", SeriesId(1));
        i.insert("cpu", "0", SeriesId(3));
        i
    }

    #[test]
    fn lookup_single() {
        let i = idx();
        let s = i.lookup("host", "skx").unwrap();
        assert_eq!(s.len(), 2);
        assert!(i.lookup("host", "zen3").is_none());
    }

    #[test]
    fn lookup_intersection() {
        let i = idx();
        let c = vec![
            ("host".to_string(), "skx".to_string()),
            ("cpu".to_string(), "0".to_string()),
        ];
        let got = i.lookup_all(&c).unwrap();
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![SeriesId(1)]);
    }

    #[test]
    fn lookup_all_empty_constraints_returns_none() {
        assert!(idx().lookup_all(&[]).is_none());
    }

    #[test]
    fn missing_constraint_gives_empty_set() {
        let c = vec![("host".to_string(), "nosuch".to_string())];
        assert!(idx().lookup_all(&c).unwrap().is_empty());
    }

    #[test]
    fn remove_cleans_up() {
        let mut i = idx();
        i.remove("host", "icl", SeriesId(3));
        assert!(i.lookup("host", "icl").is_none());
        assert_eq!(i.values_for_key("host"), vec!["skx".to_string()]);
    }

    #[test]
    fn introspection() {
        let i = idx();
        assert_eq!(i.cardinality(), 3);
        assert_eq!(
            i.values_for_key("host"),
            vec!["icl".to_string(), "skx".to_string()]
        );
    }
}
