//! # pmove-obs — self-observability substrate
//!
//! Deterministic, dependency-free metrics and span tracing for the P-MoVE
//! pipeline itself ("who monitors the monitor"). The design constraints,
//! in order:
//!
//! 1. **Bit-reproducible**: nothing in this crate reads wall-clock time or
//!    any other ambient nondeterminism. Span timestamps are supplied by
//!    the caller from the hwsim virtual clock, and every export walks
//!    `BTreeMap`s so ordering is stable. Two same-seed pipeline runs
//!    produce identical snapshots.
//! 2. **Cheap when hot**: counters and histograms are lock-free atomics;
//!    the registry lock is only taken when a handle is first created (or a
//!    span is recorded). Handles are cheap clones meant to be hoisted out
//!    of hot loops.
//! 3. **Explicit handles, no globals**: a [`Registry`] is constructed per
//!    pipeline (daemon, shipper, benchmark cell) and threaded through.
//!    This keeps parallel tests and multi-node clusters from polluting
//!    each other's telemetry.
//! 4. **Absence is a value**: an unobserved pipeline holds
//!    [`Registry::disabled`], whose handles are empty and record nothing,
//!    and an untraced call carries [`Span::none`]; neither is an
//!    `Option`, so every stage has one code path.
//!
//! The crate deliberately has no serde/tsdb dependency; `pmove-tsdb`
//! provides the exporter that flushes a [`Snapshot`] into time series
//! under the `pmove.self.*` namespace.
//!
//! ```
//! use pmove_obs::Registry;
//!
//! let reg = Registry::new();
//! let shipped = reg.counter("values_shipped", &[("host", "skx")]);
//! shipped.add(128);
//!
//! let lat = reg.histogram("ingest_ns", &[], pmove_obs::latency_buckets());
//! lat.record(1_500);
//!
//! let span = reg.span_enter("daemon.step2_build_kb", 1_000);
//! span.finish(41_000);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters[0].1, 128);
//! ```
#![forbid(unsafe_code)]

mod audit;
mod metrics;
mod prometheus;
mod slo;
mod snapshot;
mod span;
mod trace;

pub use audit::{AuditError, ConservationAudit, ConservationCell};
pub use metrics::{latency_buckets, Counter, Gauge, Histogram, MetricKey, Registry};
pub use slo::{AlertState, BurnWindow, Objective, SloEngine, SloSpec, Transition};
pub use snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
pub use span::SpanGuard;
pub use trace::{
    Span, SpanId, StageShare, TraceConfig, TraceContext, TraceId, TraceSpan, TraceTree, Tracer,
    TracerStats,
};
