//! # pmove-hwsim — simulated HPC machines
//!
//! The P-MoVE paper measures its framework on four physical x86 servers
//! (Table II) with real PMUs, RAPL domains, a 100 Mbit host↔target link and
//! spinning disks. None of that hardware is available or deterministic here,
//! so this crate provides the *machine substrate* the framework runs
//! against:
//!
//! * [`Machine`] / [`MachineSpec`] — machine specifications, including
//!   presets for the paper's four targets (SKX, ICL, CSL, ZEN3), and
//!   construction of the full component [`topology`] (node → socket → core
//!   → thread, caches, NUMA domains, memory, disks, NICs, GPUs);
//! * [`vendor`] — vendors, microarchitectures and vector ISA extensions;
//! * [`pmu`] — per-microarchitecture performance-event catalogs (the
//!   libpfm4 stand-in), programmable-counter limits per vendor, counter
//!   multiplexing, and the event *semantics* that tie event names to
//!   quantities of the execution model;
//! * [`kernel_profile`] / [`ExecModel`] — a roofline-style execution model:
//!   given a kernel's operation mix (FLOPs by ISA class, loads/stores,
//!   working set, locality) and a machine, it produces a deterministic
//!   execution timeline and per-interval counter deltas, with a RAPL
//!   package/DRAM energy model and optional DVFS (turbo derating, AVX
//!   licenses);
//! * [`cache_model`] — analytic per-level hit fractions plus a real
//!   set-associative LRU cache simulator for access traces;
//! * [`noise`] — seeded overcount/undercount noise reproducing the PMU
//!   non-determinism reported by Weaver et al. and visible in Fig. 4;
//! * [`network`] / [`disk`] — the host↔target link, fault schedules and
//!   the target disk model behind Table III's losses and Fig. 6's resource
//!   usage;
//! * [`clock`] — the virtual clock and its TSC;
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
#![warn(unreachable_pub)]

pub mod cache_model;
pub mod clock;
pub mod disk;
mod dvfs;
mod energy;
mod exec_model;
pub mod gpu;
pub mod kernel_profile;
mod machine;
pub mod network;
pub mod noise;
pub mod pmu;
pub mod probe;
pub mod system_state;
pub mod topology;
pub mod vendor;

pub use exec_model::{ExecModel, Execution};
pub use kernel_profile::KernelProfile;
pub use machine::{Machine, MachineSpec};
pub use network::{FaultKind, FaultSchedule};
pub use pmu::{EventCatalog, Quantity};
