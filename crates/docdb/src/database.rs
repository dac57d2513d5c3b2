//! Named databases holding collections, plus JSON snapshot import/export
//! (the stand-in for mongodump/mongorestore used by SUPERDB uploads).

use crate::collection::Collection;
use parking_lot::RwLock;
use pmove_obs::Registry;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A database: a set of named collections.
pub struct Database {
    name: String,
    collections: RwLock<BTreeMap<String, Arc<Collection>>>,
    obs: Arc<Registry>,
}

impl Database {
    /// New empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database::with_obs(name, Registry::disabled())
    }

    /// [`Database::new`] with an observability registry: every collection
    /// created through [`Database::collection`] counts its operations
    /// under `docdb.*`, labelled with the collection name.
    pub fn with_obs(name: impl Into<String>, registry: Arc<Registry>) -> Self {
        Database {
            name: name.into(),
            collections: RwLock::new(BTreeMap::new()),
            obs: registry,
        }
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Get or create a collection.
    pub fn collection(&self, name: &str) -> Arc<Collection> {
        let mut cols = self.collections.write();
        cols.entry(name.to_string())
            .or_insert_with(|| Arc::new(Collection::with_obs(name, &self.obs)))
            .clone()
    }

    /// Sorted collection names.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    /// Drop a collection; returns whether it existed.
    pub fn drop_collection(&self, name: &str) -> bool {
        self.collections.write().remove(name).is_some()
    }

    /// Export everything as one JSON value: `{collection: [docs...]}`.
    pub fn export_snapshot(&self) -> Value {
        let cols = self.collections.read();
        let mut out = serde_json::Map::new();
        for (name, col) in cols.iter() {
            out.insert(name.clone(), json!(col.all()));
        }
        Value::Object(out)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.name)
            .field("collections", &self.collection_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collections_are_created_on_demand_and_shared() {
        let db = Database::new("st");
        let a = db.collection("kb");
        let b = db.collection("kb");
        a.insert_one(json!({"x": 1})).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(db.collection_names(), vec!["kb".to_string()]);
    }

    #[test]
    fn drop_collection_removes() {
        let db = Database::new("st");
        db.collection("tmp");
        assert!(db.drop_collection("tmp"));
        assert!(!db.drop_collection("tmp"));
    }

    #[test]
    fn observed_database_counts_collection_ops() {
        let reg = Registry::shared();
        let db = Database::with_obs("st", reg.clone());
        let kb = db.collection("kb");
        kb.insert_one(json!({"x": 1})).unwrap();
        kb.insert_one(json!({"x": 2})).unwrap();
        kb.find(&json!({"x": 1})).unwrap();
        kb.update_many(&json!({"x": 1}), &json!({"$set": {"y": 3}}))
            .unwrap();
        kb.delete_many(&json!({"x": 2})).unwrap();
        let snap = reg.snapshot();
        let labels = [("collection", "kb")];
        assert_eq!(snap.counter("docdb.inserts", &labels), Some(2));
        assert_eq!(snap.counter("docdb.finds", &labels), Some(1));
        assert_eq!(snap.counter("docdb.updates", &labels), Some(1));
        assert_eq!(snap.counter("docdb.deletes", &labels), Some(1));
    }
}
