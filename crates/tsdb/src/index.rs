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
pub(crate) struct TagIndex {
    postings: HashMap<(String, String), BTreeSet<SeriesId>>,
}

impl TagIndex {
    /// Register a series under one tag pair.
    pub(crate) fn insert(&mut self, key: &str, value: &str, series: SeriesId) {
        self.postings
            .entry((key.to_string(), value.to_string()))
            .or_default()
            .insert(series);
    }

    /// Remove a series from one tag pair (used by retention when a series
    /// becomes empty).
    pub(crate) fn remove(&mut self, key: &str, value: &str, series: SeriesId) {
        let pair = (key.to_string(), value.to_string());
        if let Some(set) = self.postings.get_mut(&pair) {
            set.remove(&series);
            if set.is_empty() {
                self.postings.remove(&pair);
            }
        }
    }

    /// Series carrying `key=value`.
    pub(crate) fn lookup(&self, key: &str, value: &str) -> Option<&BTreeSet<SeriesId>> {
        self.postings.get(&(key.to_string(), value.to_string()))
    }

    /// Intersect postings for several constraints. `None` constraint list
    /// semantics: an empty list yields `None` (caller should scan instead).
    pub(crate) fn lookup_all(
        &self,
        constraints: &[(String, String)],
    ) -> Option<BTreeSet<SeriesId>> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> TagIndex {
        let mut i = TagIndex::default();
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
        assert_eq!(i.lookup("host", "skx").unwrap().len(), 2);
    }
}
