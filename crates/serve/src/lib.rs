//! Multi-tenant query serving for P-MoVE: admission control, per-tenant
//! quotas, weighted priority scheduling, and request coalescing in front
//! of the TSDB query engine.
//!
//! The paper's visualization front-end refreshes many dashboard panels for
//! many users against one telemetry store. This crate is the layer between
//! those panels and the engine:
//!
//! - **Admission control** — a bounded request queue plus a dispatcher
//!   concurrency limit ([`ServingConfig::queue_capacity`],
//!   [`ServingConfig::max_concurrency`]). Overflow sheds the
//!   lowest-priority request present, never silently drops.
//! - **Quotas** — per-tenant token buckets ([`TokenBucket`]) and an
//!   in-layer cap; the bucket either rejects (HTTP-429 semantics) or
//!   parks the request until its deterministic refill instant
//!   ([`OverloadPolicy`]).
//! - **Priority scheduling** — weighted fair queueing over
//!   interactive/background classes ([`WfqQueue`]) with explicit
//!   tie-breaks, so a replay under the same schedule is bit-identical.
//! - **Coalescing** — requests for the same normalized query share one
//!   backend execution, both in the queue and against in-flight work, on
//!   top of the engine's shared (write-invalidated) result cache.
//!
//! Everything runs on the virtual clock as a discrete-event simulation
//! ([`QueryServer::run`]), producing a [`ServeReport`] whose conservation
//! identity — `submitted == rejected + admitted` and
//! `admitted == served + shed` — is checked by a fairness proptest.
#![forbid(unsafe_code)]

pub mod bucket;
pub mod config;
pub mod report;
pub mod sched;
pub mod server;

pub use bucket::TokenBucket;
pub use config::{OverloadPolicy, Priority, ServeError, ServingConfig};
pub use report::{LatencySummary, RejectReason, ServeReport, ShedEvent, TenantStats};
pub use sched::{AdmitOutcome, QueuedGroup, QueuedRequest, WfqQueue};
pub use server::{BackendExec, QueryBackend, QueryServer, ServeRequest};
