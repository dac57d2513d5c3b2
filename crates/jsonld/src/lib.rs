//! # pmove-jsonld — linked-data substrate
//!
//! RDF, JSON-LD and DTDL building blocks for the P-MoVE knowledge base.
//! The paper encodes an HPC system as a hierarchy of DTDL Interfaces
//! (each component a stand-alone sub-twin) serialized over JSON-LD; this
//! crate supplies:
//!
//! * [`Dtmi`] — Digital Twin Model Identifier parsing/validation
//!   (`dtmi:dt:cn1:gpu0;1`);
//! * [`dtdl`] — the DTDL metamodel classes the paper lists ([`Interface`]
//!   with its properties, telemetry, relationships and commands) with
//!   P-MoVE's `SWTelemetry`/`HWTelemetry` extension types;
//! * [`validate`] — structural validation of DTDL documents;
//! * [`serialize`] — Interface ⇄ JSON-LD document conversion (the
//!   `dtmi:dtdl:context;2` document shape of Listing 4) and Interface →
//!   triple projection;
//! * [`Graph`] — an indexed RDF triple store (SPO/POS/OSP indexes), and
//!   [`query`] — basic-graph-pattern joins over it.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod dtdl;
mod dtmi;
mod error;
mod graph;
pub mod query;
pub mod serialize;
mod triple;
pub mod validate;

pub use dtdl::{Interface, TelemetryKind};
pub use dtmi::Dtmi;
pub use error::JsonLdError;
pub use graph::Graph;
pub use triple::Node;
