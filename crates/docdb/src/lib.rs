//! # pmove-docdb — embedded document database
//!
//! A deterministic, in-process stand-in for the MongoDB instance that the
//! P-MoVE paper uses to hold the knowledge base (JSON-LD documents extended
//! with per-computation entries). It provides:
//!
//! * a [`Database`] of named [`Collection`]s of JSON documents with
//!   auto-assigned `_id`s;
//! * a MongoDB-flavoured **filter language**: `$eq`, `$ne`, `$gt`, `$gte`,
//!   `$lt`, `$lte`, `$in`, `$nin`, `$exists`, `$and`, `$or`, `$not`,
//!   `$contains` (substring), with dotted-path field access;
//! * a failed `delete_many` changes nothing;
//! * **hash indexes** over dotted paths, consulted automatically by equality
//!   queries;
//! * a [`DurableDatabase`] whose inserts and deletes are journaled through
//!   the storage engine's WAL and replayed at open ([`JournalReport`]).
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
#![warn(unreachable_pub)]

mod collection;
mod database;
mod document;
mod error;
mod filter;
mod index;
mod journal;

pub use collection::Collection;
pub use database::Database;
pub use error::DocDbError;
pub use journal::{DurableDatabase, JournalReport};
