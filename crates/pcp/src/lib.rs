//! # pmove-pcp — sampler-agent framework
//!
//! Stand-in for Performance Co-Pilot, the metric collection/transport layer
//! the paper builds on (§III-A). The essential behaviours it reproduces:
//!
//! * a **metric namespace** with instance domains (`kernel.percpu.cpu.idle`
//!   has one instance per logical CPU; RAPL one per package) — [`metric`];
//! * **agents** (`pmdalinux`, `pmdaperfevent`, `pmdaproc`, coordinated by
//!   `pmcd`) that read metrics from a simulated machine — [`agent`],
//!   [`pmda_linux`], [`pmda_perfevent`], [`pmda_proc`], [`pmcd`];
//! * an **unbuffered sampling loop**: PCP samples and ships; nothing is
//!   queued. When shipment/insertion cannot keep up within a sampling
//!   period, data points are *lost* or arrive as *batched zeros* — the
//!   central mechanism behind Table III — [`sampler`], [`transport`];
//! * **agent resource accounting** (CPU, memory, network, disk) matching
//!   the shapes of Fig. 6: flat memory, linear CPU/network/disk in
//!   sampling frequency — [`resource`].
//!
//! Entry points: [`SamplingLoop::run`] drives a [`Shipper`], and
//! [`run_replicated`] a [`ReplShipper`], one tick loop behind both. Each
//! shipper has one ship path: `ship(t, point, freq_hz)` is
//! `ship_span(t, point, freq_hz, Span::none())`, and the sampler passes
//! the report's `pcp.sample` root span when the registry carries a
//! tracer. [`ResilienceConfig`] sizes the opt-in spill buffer; the rest
//! of the resilient policy is fixed ([`resilience`]).
#![forbid(unsafe_code)]

pub mod agent;
pub mod error;
pub mod metric;
pub mod pmcd;
pub mod pmda_linux;
pub mod pmda_nvidia;
pub mod pmda_perfevent;
pub mod pmda_proc;
pub mod replication;
pub mod resilience;
pub mod resource;
pub mod sampler;
pub mod transport;

pub use agent::{Agent, ConstantAgent, FlakyAgent};
pub use error::PcpError;
pub use metric::{InstanceDomain, MetricDesc};
pub use pmcd::{AgentHealth, Pmcd};
pub use replication::{
    run_replicated, ReplSamplingReport, ReplShipOutcome, ReplShipper, ReplStats,
};
pub use resilience::{BreakerState, CircuitBreaker, ResilienceConfig};
pub use sampler::{SamplingConfig, SamplingLoop, SamplingReport};
pub use transport::{ShipOutcome, Shipper, ShipperStats, GAP_MEASUREMENT};
