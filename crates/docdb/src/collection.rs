//! Collections: ordered bags of JSON documents with filters and hash
//! indexes.

use crate::error::DocDbError;
use crate::filter::{equality_constraints, matches};
use crate::index::PathIndex;
use parking_lot::RwLock;
use pmove_obs::{Counter, Registry};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};

struct Inner {
    /// Slot-addressed documents; `None` marks deleted slots.
    docs: Vec<Option<Value>>,
    indexes: Vec<PathIndex>,
    live: usize,
}

/// Hoisted per-collection `docdb.*` op counters, labelled by collection.
struct CollectionObs {
    inserts: Counter,
    finds: Counter,
    deletes: Counter,
}

impl CollectionObs {
    fn new(registry: &Registry, collection: &str) -> CollectionObs {
        let labels = [("collection", collection)];
        CollectionObs {
            inserts: registry.counter("docdb.inserts", &labels),
            finds: registry.counter("docdb.finds", &labels),
            deletes: registry.counter("docdb.deletes", &labels),
        }
    }
}

/// A named document collection. Cloneable handles share state via the
/// database; `Collection` itself is the storage object.
pub struct Collection {
    name: String,
    inner: RwLock<Inner>,
    next_id: AtomicU64,
    obs: CollectionObs,
}

impl Collection {
    /// New empty collection whose `docdb.*` op counters (labelled with the
    /// collection name) are registered in `registry`.
    pub(crate) fn new(name: impl Into<String>, registry: &Registry) -> Self {
        let name = name.into();
        Collection {
            obs: CollectionObs::new(registry, &name),
            name,
            inner: RwLock::new(Inner {
                docs: Vec::new(),
                indexes: Vec::new(),
                live: 0,
            }),
            next_id: AtomicU64::new(1),
        }
    }

    /// Raise the auto-`_id` counter to at least `min`, so documents
    /// restored from a journal never collide with freshly assigned ids.
    pub(crate) fn bump_next_id(&self, min: u64) {
        self.next_id.fetch_max(min, Ordering::Relaxed);
    }

    /// Number of live documents.
    pub(crate) fn len(&self) -> usize {
        self.inner.read().live
    }

    /// Create a hash index over `path` and index existing documents.
    pub fn create_index(&self, path: impl Into<String>) {
        let mut inner = self.inner.write();
        let mut idx = PathIndex::new(path);
        for (slot, doc) in inner.docs.iter().enumerate() {
            if let Some(doc) = doc {
                idx.add(slot, doc);
            }
        }
        inner.indexes.push(idx);
    }

    /// Insert one document; assigns `_id` if absent. Returns the `_id`.
    pub fn insert_one(&self, mut doc: Value) -> Result<String, DocDbError> {
        self.obs.inserts.inc();
        let map = doc.as_object_mut().ok_or(DocDbError::NotAnObject)?;
        let id = match map.get("_id") {
            Some(Value::String(s)) => s.clone(),
            Some(other) => other.to_string(),
            None => {
                let id = format!("oid{:08x}", self.next_id.fetch_add(1, Ordering::Relaxed));
                map.insert("_id".into(), json!(id));
                id
            }
        };
        let mut inner = self.inner.write();
        // _id uniqueness check (scan or index).
        let id_value = json!(id);
        let dup = if let Some(idx) = inner.indexes.iter().find(|i| i.path() == "_id") {
            idx.lookup(&id_value).is_some_and(|s| !s.is_empty())
        } else {
            inner
                .docs
                .iter()
                .flatten()
                .any(|d| d.get("_id") == Some(&id_value))
        };
        if dup {
            return Err(DocDbError::DuplicateId(id));
        }
        let slot = inner.docs.len();
        for idx in &mut inner.indexes {
            idx.add(slot, &doc);
        }
        inner.docs.push(Some(doc));
        inner.live += 1;
        Ok(id)
    }

    fn candidate_slots(&self, inner: &Inner, filter: &Value) -> Option<Vec<usize>> {
        // Use the most selective matching index among top-level equality
        // constraints, if any.
        let eqs = equality_constraints(filter);
        let mut best: Option<Vec<usize>> = None;
        for (path, value) in &eqs {
            if let Some(idx) = inner.indexes.iter().find(|i| i.path() == path.as_str()) {
                let slots: Vec<usize> = idx
                    .lookup(value)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default();
                if best.as_ref().is_none_or(|b| slots.len() < b.len()) {
                    best = Some(slots);
                }
            }
        }
        best
    }

    /// Find documents matching `filter` (insertion order).
    pub fn find(&self, filter: &Value) -> Result<Vec<Value>, DocDbError> {
        self.obs.finds.inc();
        let inner = self.inner.read();
        let mut out = Vec::new();
        match self.candidate_slots(&inner, filter) {
            Some(slots) => {
                for slot in slots {
                    if let Some(Some(doc)) = inner.docs.get(slot) {
                        if matches(doc, filter)? {
                            out.push(doc.clone());
                        }
                    }
                }
            }
            None => {
                for doc in inner.docs.iter().flatten() {
                    if matches(doc, filter)? {
                        out.push(doc.clone());
                    }
                }
            }
        }
        Ok(out)
    }

    /// First matching document, if any.
    pub fn find_one(&self, filter: &Value) -> Result<Option<Value>, DocDbError> {
        Ok(self.find(filter)?.into_iter().next())
    }

    /// Delete all matching documents; returns the number deleted. The
    /// filter is evaluated against every document first, so an `Err`
    /// deletes nothing.
    pub fn delete_many(&self, filter: &Value) -> Result<usize, DocDbError> {
        self.obs.deletes.inc();
        let mut inner = self.inner.write();
        let mut doomed = Vec::new();
        for (slot, doc) in inner.docs.iter().enumerate() {
            if let Some(doc) = doc {
                if matches(doc, filter)? {
                    doomed.push(slot);
                }
            }
        }
        let inner = &mut *inner;
        for &slot in &doomed {
            if let Some(doc) = inner.docs[slot].take() {
                for idx in &mut inner.indexes {
                    idx.remove(slot, &doc);
                }
            }
        }
        inner.live -= doomed.len();
        Ok(doomed.len())
    }

    /// All documents (insertion order).
    pub fn all(&self) -> Vec<Value> {
        self.inner.read().docs.iter().flatten().cloned().collect()
    }
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection")
            .field("name", &self.name)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(name: &str) -> Collection {
        Collection::new(name, &Registry::disabled())
    }

    fn filled() -> Collection {
        let c = empty("kb");
        for doc in [
            json!({"@type": "Interface", "name": "cpu0", "freq": 3.7}),
            json!({"@type": "Interface", "name": "cpu1", "freq": 2.7}),
            json!({"@type": "Telemetry", "name": "metric4"}),
        ] {
            c.insert_one(doc).unwrap();
        }
        c
    }

    #[test]
    fn insert_assigns_unique_ids() {
        let c = filled();
        assert_eq!(c.len(), 3);
        let ids: Vec<Value> = c.all().iter().map(|d| d["_id"].clone()).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|i| i.is_string()));
    }

    #[test]
    fn duplicate_id_rejected() {
        let c = empty("t");
        c.insert_one(json!({"_id": "x"})).unwrap();
        assert_eq!(
            c.insert_one(json!({"_id": "x"})),
            Err(DocDbError::DuplicateId("x".into()))
        );
    }

    #[test]
    fn non_object_rejected() {
        let c = empty("t");
        assert_eq!(c.insert_one(json!([1, 2])), Err(DocDbError::NotAnObject));
    }

    #[test]
    fn find_with_filter() {
        let c = filled();
        assert_eq!(c.find(&json!({"@type": "Interface"})).unwrap().len(), 2);
        let one = c.find_one(&json!({"name": "metric4"})).unwrap().unwrap();
        assert_eq!(one["@type"], json!("Telemetry"));
        assert!(c.find_one(&json!({"name": "nope"})).unwrap().is_none());
    }

    #[test]
    fn delete_many_removes() {
        let c = filled();
        let n = c.delete_many(&json!({"@type": "Telemetry"})).unwrap();
        assert_eq!(n, 1);
        assert_eq!(c.len(), 2);
        assert!(c.find(&json!({"@type": "Telemetry"})).unwrap().is_empty());
    }

    #[test]
    fn index_is_used_and_stays_consistent() {
        let c = filled();
        c.create_index("@type");
        let count = |t: &str| c.find(&json!({"@type": t})).unwrap().len();
        assert_eq!(count("Interface"), 2);
        // Delete removes from the index.
        c.delete_many(&json!({"name": "cpu1"})).unwrap();
        assert_eq!(count("Interface"), 1);
        // An insert after the delete lands in the index too.
        c.insert_one(json!({"@type": "Interface", "name": "cpu2"}))
            .unwrap();
        assert_eq!(count("Interface"), 2);
    }

    #[test]
    fn null_equality_finds_missing_fields_through_an_index() {
        let c = filled();
        c.create_index("freq");
        let missing = c.find(&json!({"freq": null})).unwrap();
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0]["name"], json!("metric4"));
        assert_eq!(c.find(&json!({"freq": {"$eq": null}})).unwrap(), missing);
    }

    #[test]
    fn index_on_id_speeds_duplicate_check() {
        let c = empty("t");
        c.create_index("_id");
        c.insert_one(json!({"_id": "a"})).unwrap();
        assert!(c.insert_one(json!({"_id": "a"})).is_err());
        assert!(c.insert_one(json!({"_id": "b"})).is_ok());
    }

    #[test]
    fn failed_delete_many_changes_nothing() {
        // `k = 1` matches the first branch; `k = 2` reaches the bad operator.
        let c = empty("t");
        c.create_index("k");
        c.insert_one(json!({"k": 1})).unwrap();
        c.insert_one(json!({"k": 2})).unwrap();
        let before = c.all();
        let filter = json!({"$or": [{"k": 1}, {"k": {"$bogus": 1}}]});
        assert!(c.delete_many(&filter).is_err());
        assert_eq!(c.all(), before);
        assert_eq!(c.len(), 2);
        assert_eq!(c.find(&json!({"k": 1})).unwrap(), before[..1]);
    }
}
