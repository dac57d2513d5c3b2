//! # pmove-jsonld — linked-data substrate
//!
//! RDF, JSON-LD and DTDL building blocks for the P-MoVE knowledge base.
//! The paper encodes an HPC system as a hierarchy of DTDL Interfaces
//! (each component a stand-alone sub-twin) serialized over JSON-LD; this
//! crate supplies:
//!
//! * [`triple`] — RDF triples over IRIs/literals;
//! * [`graph`] — an indexed triple store with `(s?, p?, o?)` pattern queries
//!   (SPO/POS/OSP indexes);
//! * [`dtmi`] — Digital Twin Model Identifier parsing/validation
//!   (`dtmi:dt:cn1:gpu0;1`);
//! * [`context`] / [`expand`] — the JSON-LD `@context` term-expansion subset
//!   that DTDL documents rely on;
//! * [`dtdl`] — the six DTDL metamodel classes the paper lists (Interface,
//!   Telemetry, Property, Command, Relationship, plus schemas) with P-MoVE's
//!   `SWTelemetry`/`HWTelemetry` extension types;
//! * [`validate`] — structural validation of DTDL documents;
//! * [`serialize`] — Interface ⇄ JSON-LD document conversion and
//!   Interface → triple projection.
#![forbid(unsafe_code)]

pub mod context;
pub mod dtdl;
pub mod dtmi;
pub mod error;
pub mod expand;
pub mod graph;
pub mod query;
pub mod serialize;
pub mod triple;
pub mod validate;

pub use dtdl::{Content, Interface, Property, Relationship, Schema, Telemetry, TelemetryKind};
pub use dtmi::Dtmi;
pub use error::JsonLdError;
pub use graph::Graph;
pub use triple::{Node, Triple};
