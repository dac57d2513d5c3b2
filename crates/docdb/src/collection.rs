//! Collections: ordered bags of JSON documents with filters, updates,
//! indexes and find options.

use crate::document::{compare, get_path};
use crate::error::DocDbError;
use crate::filter::{equality_constraints, matches};
use crate::index::PathIndex;
use crate::update;
use parking_lot::RwLock;
use pmove_obs::{Counter, Registry};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Options controlling `find_with`.
#[derive(Debug, Clone, Default)]
pub struct FindOptions {
    /// Sort by this dotted path (ascending unless `descending`).
    pub sort_by: Option<String>,
    /// Reverse the sort order.
    pub descending: bool,
    /// Keep at most this many results.
    pub limit: Option<usize>,
}

impl FindOptions {
    /// Sort ascending by `path`.
    pub fn sort(path: impl Into<String>) -> Self {
        FindOptions {
            sort_by: Some(path.into()),
            ..Default::default()
        }
    }

    /// Flip to descending order.
    pub fn desc(mut self) -> Self {
        self.descending = true;
        self
    }

    /// Cap the number of results.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }
}

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
    updates: Counter,
    deletes: Counter,
}

impl CollectionObs {
    fn new(registry: &Registry, collection: &str) -> CollectionObs {
        let labels = [("collection", collection)];
        CollectionObs {
            inserts: registry.counter("docdb.inserts", &labels),
            finds: registry.counter("docdb.finds", &labels),
            updates: registry.counter("docdb.updates", &labels),
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
    /// New empty collection.
    pub fn new(name: impl Into<String>) -> Self {
        Collection::with_obs(name, &Registry::disabled())
    }

    /// [`Collection::new`] with `docdb.*` op counters (labelled with the
    /// collection name) registered in `registry`.
    pub fn with_obs(name: impl Into<String>, registry: &Registry) -> Self {
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

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Raise the auto-`_id` counter to at least `min`, so documents
    /// restored from a journal never collide with freshly assigned ids.
    pub(crate) fn bump_next_id(&self, min: u64) {
        self.next_id.fetch_max(min, Ordering::Relaxed);
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.inner.read().live
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Insert many documents; stops at the first error.
    pub fn insert_many<I: IntoIterator<Item = Value>>(
        &self,
        docs: I,
    ) -> Result<Vec<String>, DocDbError> {
        docs.into_iter().map(|d| self.insert_one(d)).collect()
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
        self.find_with(filter, &FindOptions::default())
    }

    /// Find with sort/limit options.
    pub fn find_with(&self, filter: &Value, opts: &FindOptions) -> Result<Vec<Value>, DocDbError> {
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
        if let Some(path) = &opts.sort_by {
            out.sort_by(|a, b| {
                let av = get_path(a, path).unwrap_or(&Value::Null);
                let bv = get_path(b, path).unwrap_or(&Value::Null);
                compare(av, bv)
            });
            if opts.descending {
                out.reverse();
            }
        }
        if let Some(limit) = opts.limit {
            out.truncate(limit);
        }
        Ok(out)
    }

    /// First matching document, if any.
    pub fn find_one(&self, filter: &Value) -> Result<Option<Value>, DocDbError> {
        Ok(self
            .find_with(filter, &FindOptions::default().limit(1))?
            .into_iter()
            .next())
    }

    /// Update all matching documents; returns the number updated.
    pub fn update_many(&self, filter: &Value, spec: &Value) -> Result<usize, DocDbError> {
        self.obs.updates.inc();
        let mut inner = self.inner.write();
        let mut updated = 0;
        for slot in 0..inner.docs.len() {
            let Some(doc) = inner.docs[slot].clone() else {
                continue;
            };
            if matches(&doc, filter)? {
                let mut new_doc = doc.clone();
                update::apply(&mut new_doc, spec)?;
                for idx in &mut inner.indexes {
                    idx.remove(slot, &doc);
                    idx.add(slot, &new_doc);
                }
                inner.docs[slot] = Some(new_doc);
                updated += 1;
            }
        }
        Ok(updated)
    }

    /// Delete all matching documents; returns the number deleted.
    pub fn delete_many(&self, filter: &Value) -> Result<usize, DocDbError> {
        self.obs.deletes.inc();
        let mut inner = self.inner.write();
        let mut deleted = 0;
        for slot in 0..inner.docs.len() {
            let Some(doc) = inner.docs[slot].clone() else {
                continue;
            };
            if matches(&doc, filter)? {
                for idx in &mut inner.indexes {
                    idx.remove(slot, &doc);
                }
                inner.docs[slot] = None;
                inner.live -= 1;
                deleted += 1;
            }
        }
        Ok(deleted)
    }

    /// Count documents matching the filter.
    pub fn count(&self, filter: &Value) -> Result<usize, DocDbError> {
        Ok(self.find(filter)?.len())
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

    fn filled() -> Collection {
        let c = Collection::new("kb");
        c.insert_many([
            json!({"@type": "Interface", "name": "cpu0", "freq": 3.7}),
            json!({"@type": "Interface", "name": "cpu1", "freq": 2.7}),
            json!({"@type": "Telemetry", "name": "metric4"}),
        ])
        .unwrap();
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
        let c = Collection::new("t");
        c.insert_one(json!({"_id": "x"})).unwrap();
        assert_eq!(
            c.insert_one(json!({"_id": "x"})),
            Err(DocDbError::DuplicateId("x".into()))
        );
    }

    #[test]
    fn non_object_rejected() {
        let c = Collection::new("t");
        assert_eq!(c.insert_one(json!([1, 2])), Err(DocDbError::NotAnObject));
    }

    #[test]
    fn find_with_filter() {
        let c = filled();
        assert_eq!(c.count(&json!({"@type": "Interface"})).unwrap(), 2);
        let one = c.find_one(&json!({"name": "metric4"})).unwrap().unwrap();
        assert_eq!(one["@type"], json!("Telemetry"));
        assert!(c.find_one(&json!({"name": "nope"})).unwrap().is_none());
    }

    #[test]
    fn sort_and_limit() {
        let c = filled();
        let opts = FindOptions::sort("freq").desc().limit(1);
        let r = c.find_with(&json!({"@type": "Interface"}), &opts).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0]["name"], json!("cpu0"));
    }

    #[test]
    fn update_many_applies_operators() {
        let c = filled();
        let n = c
            .update_many(
                &json!({"@type": "Interface"}),
                &json!({"$inc": {"freq": 1}}),
            )
            .unwrap();
        assert_eq!(n, 2);
        let d = c.find_one(&json!({"name": "cpu0"})).unwrap().unwrap();
        assert_eq!(d["freq"], json!(4.7));
    }

    #[test]
    fn delete_many_removes() {
        let c = filled();
        let n = c.delete_many(&json!({"@type": "Telemetry"})).unwrap();
        assert_eq!(n, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.count(&json!({"@type": "Telemetry"})).unwrap(), 0);
    }

    #[test]
    fn index_is_used_and_stays_consistent() {
        let c = filled();
        c.create_index("@type");
        assert_eq!(c.count(&json!({"@type": "Interface"})).unwrap(), 2);
        // Update moves documents between index keys.
        c.update_many(
            &json!({"name": "cpu1"}),
            &json!({"$set": {"@type": "Retired"}}),
        )
        .unwrap();
        assert_eq!(c.count(&json!({"@type": "Interface"})).unwrap(), 1);
        assert_eq!(c.count(&json!({"@type": "Retired"})).unwrap(), 1);
        // Delete removes from the index.
        c.delete_many(&json!({"@type": "Retired"})).unwrap();
        assert_eq!(c.count(&json!({"@type": "Retired"})).unwrap(), 0);
    }

    #[test]
    fn index_on_id_speeds_duplicate_check() {
        let c = Collection::new("t");
        c.create_index("_id");
        c.insert_one(json!({"_id": "a"})).unwrap();
        assert!(c.insert_one(json!({"_id": "a"})).is_err());
        assert!(c.insert_one(json!({"_id": "b"})).is_ok());
    }
}
