//! Write-invalidated LRU query-result cache.
//!
//! Entries are keyed by the query's normalized text ([`crate::Query::
//! normalized`]) and carry the *measurement write version* observed before
//! the query executed. The engine bumps a measurement's version on every
//! accepted write (and bumps all versions on retention enforcement and
//! store recovery), so a lookup whose stored version differs from the
//! current one is stale and is dropped — invalidation is lazy, costing the
//! write path one counter increment instead of a cache sweep. The version
//! is captured *before* execution, which is conservative under races: a
//! write landing mid-execution makes the entry stale on its next lookup
//! even if the query already saw the new data.

use crate::query::Frame;
use std::collections::HashMap;
use std::sync::Arc;

/// Default number of cached results per database.
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Outcome of a cache lookup.
pub(crate) enum CacheLookup {
    /// Fresh entry; the shared result.
    Hit(Arc<Frame>),
    /// An entry existed but its measurement has been written since; it has
    /// been dropped.
    Stale,
    /// No entry.
    Miss,
}

#[derive(Debug)]
struct CacheEntry {
    version: u64,
    last_used: u64,
    result: Arc<Frame>,
}

/// The cache. LRU over a monotone access tick; capacity 0 disables it.
#[derive(Debug)]
pub(crate) struct QueryCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, CacheEntry>,
}

impl QueryCache {
    /// Cache holding up to `capacity` results (0 disables caching).
    pub(crate) fn new(capacity: usize) -> Self {
        QueryCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Maximum number of entries.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Resize; shrinking evicts LRU entries, 0 clears and disables.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if capacity == 0 {
            self.entries.clear();
        } else {
            while self.entries.len() > self.capacity {
                self.evict_lru();
            }
        }
    }

    /// Look up `key`, validating against the measurement's current write
    /// version.
    pub(crate) fn get(&mut self, key: &str, current_version: u64) -> CacheLookup {
        self.tick += 1;
        let stale = match self.entries.get_mut(key) {
            None => return CacheLookup::Miss,
            Some(e) if e.version == current_version => {
                e.last_used = self.tick;
                return CacheLookup::Hit(e.result.clone());
            }
            Some(_) => true,
        };
        debug_assert!(stale);
        self.entries.remove(key);
        CacheLookup::Stale
    }

    /// Insert a result observed at `version`; returns how many entries
    /// were evicted to make room (0 or 1 in steady state).
    pub(crate) fn insert(&mut self, key: String, version: u64, result: Arc<Frame>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        self.tick += 1;
        self.entries.insert(
            key,
            CacheEntry {
                version,
                last_used: self.tick,
                result,
            },
        );
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            self.evict_lru();
            evicted += 1;
        }
        evicted
    }

    fn evict_lru(&mut self) {
        // Ticks are unique, so the minimum is unambiguous and eviction is
        // deterministic even over the unordered map.
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        {
            self.entries.remove(&key);
        }
    }
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(n: usize) -> Arc<Frame> {
        Arc::new(Frame {
            columns: vec![format!("c{n}")],
            ..Frame::default()
        })
    }

    #[test]
    fn hit_miss_and_version_staleness() {
        let mut c = QueryCache::new(4);
        assert!(matches!(c.get("q1", 0), CacheLookup::Miss));
        c.insert("q1".into(), 0, result(1));
        match c.get("q1", 0) {
            CacheLookup::Hit(r) => assert_eq!(r.columns, vec!["c1".to_string()]),
            _ => panic!("expected hit"),
        }
        // A write bumped the measurement version: stale, then gone.
        assert!(matches!(c.get("q1", 1), CacheLookup::Stale));
        assert!(matches!(c.get("q1", 1), CacheLookup::Miss));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = QueryCache::new(2);
        c.insert("a".into(), 0, result(1));
        c.insert("b".into(), 0, result(2));
        // Touch `a`, making `b` the LRU victim.
        assert!(matches!(c.get("a", 0), CacheLookup::Hit(_)));
        let evicted = c.insert("c".into(), 0, result(3));
        assert_eq!(evicted, 1);
        assert!(matches!(c.get("b", 0), CacheLookup::Miss));
        assert!(matches!(c.get("a", 0), CacheLookup::Hit(_)));
        assert!(matches!(c.get("c", 0), CacheLookup::Hit(_)));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = QueryCache::new(0);
        assert_eq!(c.insert("a".into(), 0, result(1)), 0);
        assert!(matches!(c.get("a", 0), CacheLookup::Miss));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let mut c = QueryCache::new(4);
        for (i, k) in ["a", "b", "c", "d"].iter().enumerate() {
            c.insert((*k).into(), 0, result(i));
        }
        assert_eq!(c.len(), 4);
        c.set_capacity(1);
        assert_eq!(c.len(), 1);
        c.set_capacity(0);
        assert_eq!(c.len(), 0);
    }
}
