//! # pmove-docdb — embedded document database
//!
//! A deterministic, in-process stand-in for the MongoDB instance that the
//! P-MoVE paper uses to hold the knowledge base (JSON-LD documents extended
//! with per-computation entries). It provides:
//!
//! * **collections** of JSON documents with auto-assigned `_id`s;
//! * a MongoDB-flavoured **filter language**: `$eq`, `$ne`, `$gt`, `$gte`,
//!   `$lt`, `$lte`, `$in`, `$nin`, `$exists`, `$and`, `$or`, `$not`,
//!   `$contains` (substring), with dotted-path field access;
//! * **update operators**: `$set`, `$unset`, `$inc`, `$push`;
//! * **hash indexes** over dotted paths, consulted automatically by equality
//!   queries;
//! * sorted/limited **find**.
//!
//! ```
//! use pmove_docdb::Database;
//! use serde_json::json;
//!
//! let db = Database::new("supertwin");
//! let kb = db.collection("kb");
//! kb.insert_one(json!({"@id": "dtmi:dt:cn1:gpu0;1", "@type": "Interface"})).unwrap();
//! let found = kb.find(&json!({"@type": {"$eq": "Interface"}})).unwrap();
//! assert_eq!(found.len(), 1);
//! ```
#![forbid(unsafe_code)]

pub mod collection;
pub mod database;
pub mod document;
pub mod error;
pub mod filter;
pub mod index;
pub mod journal;
pub mod update;

pub use collection::{Collection, FindOptions};
pub use database::Database;
pub use error::DocDbError;
pub use journal::{DurableDatabase, JournalReport};

/// Convenience macro building a `serde_json::Value` document.
#[macro_export]
macro_rules! doc {
    ($($t:tt)*) => { serde_json::json!({ $($t)* }) };
}
