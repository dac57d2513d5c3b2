//! Multi-tenant query serving for P-MoVE: admission control, per-tenant
//! quotas, weighted priority scheduling, and request coalescing in front
//! of the TSDB query engine.
//!
//! The paper's visualization front-end refreshes many dashboard panels for
//! many users against one telemetry store. This crate is the layer between
//! those panels and the engine, configured by one [`ServingConfig`]:
//!
//! - **Admission control** — a bounded request queue plus a dispatcher
//!   concurrency limit ([`ServingConfig::queue_capacity`],
//!   [`ServingConfig::max_concurrency`]). Overflow sheds the
//!   lowest-priority request present, never silently drops.
//! - **Quotas** — per-tenant token buckets and an in-layer cap; a request
//!   the bucket cannot cover is admitted and parked until its
//!   deterministic refill instant, and the cap rejects the rest.
//! - **Priority scheduling** — weighted fair queueing over the
//!   [`Priority`] classes with explicit tie-breaks, so a replay under the
//!   same schedule is bit-identical.
//! - **Coalescing** — requests for the same normalized query share one
//!   backend execution, both in the queue and against in-flight work, on
//!   top of the engine's shared (write-invalidated) result cache.
//!
//! Everything runs on the virtual clock as a discrete-event simulation
//! ([`QueryServer::run`]) over any [`QueryBackend`] — one database or a
//! quorum replica set — producing a [`ServeReport`] whose conservation
//! identity — `submitted == rejected + admitted` and
//! `admitted == served + shed` — is checked by a fairness proptest.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod bucket;
mod config;
mod report;
mod sched;
mod server;

pub use config::{Priority, ServeError, ServingConfig, SLO_P99_NS};
pub use report::ServeReport;
pub use server::{BackendExec, QueryBackend, QueryServer, ServeRequest};
