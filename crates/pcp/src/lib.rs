//! # pmove-pcp — sampler-agent framework
//!
//! Stand-in for Performance Co-Pilot, the metric collection/transport layer
//! the paper builds on (§III-A). The essential behaviours it reproduces:
//!
//! * a **metric namespace** with instance domains (`kernel.percpu.cpu.idle`
//!   has one instance per logical CPU; RAPL one per package);
//! * **agents** that read metrics from a simulated machine —
//!   [`pmda_linux`], [`pmda_perfevent`], [`pmda_proc`] and [`pmda_nvidia`]
//!   — registered with the [`Pmcd`] coordinator, which supervises them and
//!   assembles one point per metric and tick;
//! * an **unbuffered sampling loop**: PCP samples and ships; nothing is
//!   queued. The [`Shipper`]'s per-window capacity (PCP PDU handling plus
//!   the InfluxDB insert) is the one model of database-side
//!   backpressure: a report beyond it is *lost*, and reports sampled at
//!   high frequency may arrive as *batched zeros* — the mechanism behind
//!   Table III;
//! * **agent resource accounting** (CPU, memory, network, disk) matching
//!   the shapes of Fig. 6: flat memory, linear CPU/network/disk in
//!   sampling frequency — [`resource`].
//!
//! Entry points: [`SamplingLoop::run`] drives a [`Shipper`], and
//! [`run_replicated`] a [`ReplShipper`] over a quorum replica set, one
//! tick loop behind both. Each shipper has one ship path: `ship(t, point,
//! freq_hz)` is `ship_span(t, point, freq_hz, Span::none())`, and the
//! sampler passes the report's `pcp.sample` root span when the registry
//! carries a tracer. The single-node path never buffers (an outage is
//! loss, as the paper measures); the replicated coordinator's hinted
//! handoff is the one buffer for outages.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod agent;
mod error;
mod metric;
mod pmcd;
pub mod pmda_linux;
pub mod pmda_nvidia;
pub mod pmda_perfevent;
pub mod pmda_proc;
mod replication;
pub mod resource;
mod sampler;
mod transport;

pub use error::PcpError;
pub use pmcd::Pmcd;
pub use replication::{
    run_replicated, ReplSamplingReport, ReplShipOutcome, ReplShipper, ReplStats,
};
pub use sampler::{SamplingConfig, SamplingLoop, SamplingReport};
pub use transport::{ShipOutcome, Shipper, ShipperStats};
