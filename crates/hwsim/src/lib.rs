//! # pmove-hwsim — simulated HPC machines
//!
//! The P-MoVE paper measures its framework on four physical x86 servers
//! (Table II) with real PMUs, RAPL domains, a 100 Mbit host↔target link and
//! spinning disks. None of that hardware is available or deterministic here,
//! so this crate provides the *machine substrate* the framework runs
//! against:
//!
//! * [`machine`] — machine specifications, including presets for the paper's
//!   four targets (SKX, ICL, CSL, ZEN3), and construction of the full
//!   component [`topology`] (node → socket → core → thread, caches, NUMA
//!   domains, memory, disks, NICs, GPUs);
//! * [`pmu`] — per-microarchitecture performance-event catalogs (the
//!   libpfm4 stand-in), programmable-counter limits per vendor, counter
//!   multiplexing, and the event *semantics* that tie event names to
//!   quantities of the execution model;
//! * [`kernel_profile`] / [`exec_model`] — a roofline-style execution model:
//!   given a kernel's operation mix (FLOPs by ISA class, loads/stores,
//!   working set, locality) and a machine, it produces a deterministic
//!   execution timeline and per-interval counter deltas;
//! * [`cache_model`] — analytic per-level hit fractions plus a real
//!   set-associative LRU cache simulator for access traces;
//! * [`energy`] — a RAPL package/DRAM energy model;
//! * [`noise`] — seeded overcount/undercount noise reproducing the PMU
//!   non-determinism reported by Weaver et al. and visible in Fig. 4;
//! * [`network`] / [`disk`] — the host↔target link and target disk models
//!   behind Table III's losses and Fig. 6's resource usage;
//! * [`gpu`] — NVIDIA device models with NVML-like metric catalogs and
//!   ncu-style kernel reports (Listing 4);
//! * [`system_state`] — deterministic software/system-state metrics
//!   (load, processes, memory) that the `pmdalinux` agent samples;
//! * [`probe`] — the probing module output: one JSON report per machine
//!   covering everything above (the lshw/likwid-topology/cpuid stand-in).
//!
//! Everything is deterministic: stochastic elements derive from
//! `rand_chacha` seeded per (machine, event) pair.
#![forbid(unsafe_code)]

pub mod cache_model;
pub mod clock;
pub mod disk;
pub mod dvfs;
pub mod energy;
pub mod exec_model;
pub mod gpu;
pub mod kernel_profile;
pub mod machine;
pub mod network;
pub mod noise;
pub mod pmu;
pub mod probe;
pub mod system_state;
pub mod topology;
pub mod vendor;

pub use exec_model::{ExecModel, Execution};
pub use kernel_profile::{IsaClass, KernelProfile, LocalityProfile, Precision};
pub use machine::{Machine, MachineSpec};
pub use network::{FaultKind, FaultSchedule, FaultState, FaultWindow};
pub use pmu::{EventCatalog, EventDef, Quantity};
pub use topology::{Component, ComponentId, ComponentKind, Topology};
pub use vendor::{Microarch, Vendor};
