//! # pmove-core — the P-MoVE framework
//!
//! The paper's primary contribution: a digital-twin-inspired performance
//! monitoring and visualization framework driven by an encoded Knowledge
//! Base. Everything here operates against the substrate crates
//! (`pmove-hwsim` machines, `pmove-pcp` samplers, `pmove-tsdb`/
//! `pmove-docdb` databases, `pmove-jsonld` ontology).
//!
//! Architecture (paper §III–IV):
//!
//! * [`probe`] — step ①/②: deep-probe a target machine into one JSON
//!   report;
//! * [`kb`] — the Knowledge Base: probe report → DTDL Interface hierarchy
//!   (every component a sub-twin), focus/subtree/level views, Observation
//!   and Benchmark interfaces, docdb persistence (step ③), and SUPERDB,
//!   the global multi-machine database;
//! * [`abstraction`] — the Abstraction Layer: config-file grammar mapping
//!   generic event names (`TOTAL_MEMORY_OPERATIONS`) to per-µarch PMU
//!   formulas (`MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES`),
//!   with builtin presets reproducing Table I, and `pmu_utils::get`;
//! * [`telemetry`] — the daemon and the two scenarios of Fig. 3:
//!   Scenario A (always-on SW telemetry) and Scenario B (PMU capture
//!   around pinned kernel executions) with the four pinning strategies;
//! * [`dashboard`] — Grafana-compatible dashboard JSON (Listing 1) with
//!   automatic focus/subtree/level view generation and a text renderer;
//! * [`carm`] — Cache-Aware Roofline Model construction via auto-configured
//!   microbenchmarks, KB-cached roofs, and the live-CARM panel computing
//!   (AI, GFLOPS) trajectories from PMU formulas (Figs. 8 and 9);
//! * [`analysis`] — automatic query generation (Listing 3), textual
//!   reports, anomaly scans over level views, and focus-path root-cause
//!   tracing.
//!
//! ```
//! use pmove_core::PMoveDaemon;
//!
//! // Steps ⓪–③: env, probe, KB generation, KB insertion.
//! let mut daemon = PMoveDaemon::for_preset("icl").unwrap();
//! assert!(daemon.kb.len() > 40);
//!
//! // Scenario A: always-on software telemetry.
//! let report = daemon.monitor(10.0, 2.0, None);
//! assert_eq!(report.ticks, 20);
//! assert!(daemon.ts.measurements().contains(&"kernel_all_load".to_string()));
//! ```
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod abstraction;
pub mod analysis;
pub mod carm;
pub mod dashboard;
mod error;
mod ids;
pub mod kb;
pub mod probe;
pub mod profiles;
pub mod telemetry;

pub use error::PmoveError;
pub use telemetry::daemon::PMoveDaemon;
