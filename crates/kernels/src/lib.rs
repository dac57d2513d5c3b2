//! # pmove-kernels — benchmark kernels with analytic ground truth
//!
//! The paper's accuracy study (Fig. 4) compares PMU samples against
//! `likwid-bench`, which executes *pre-determined, fixed numbers of
//! instruction streams* and reports the exact operation counts afterwards.
//! This crate plays that role:
//!
//! * [`streams`] — the six kernels of Figs. 4/5 (`sum`, `stream`, `triad`,
//!   `peakflops`, `ddot`, `daxpy`) plus `copy`/`scale`, each as a real,
//!   runnable (rayon-parallel) Rust kernel **and** an analytic
//!   [`ground_truth::OpCounts`] record — ground truth by construction;
//! * [`ground_truth`] — exact FLOP/load/store/byte accounting per kernel,
//!   including the theoretical arithmetic intensities the live-CARM study
//!   quotes (Triad 0.625, PeakFlops 2, DDOT 0.125 — Fig. 9);
//! * [`stream_bench`] — a STREAM benchmark (copy/scale/add/triad,
//!   best-of-N timing) for the `BenchmarkInterface`;
//! * [`hpcg`] — a compact but real HPCG: 27-point stencil operator,
//!   preconditioned CG with symmetric Gauss–Seidel, residual-verified;
//! * [`registry`] — kernel lookup by name for Scenario B's
//!   "request an executable" flow.
#![forbid(unsafe_code)]

pub mod ground_truth;
pub mod hpcg;
pub mod registry;
pub mod stream_bench;
pub mod streams;

pub use ground_truth::OpCounts;
pub use registry::{KernelSpec, Registry};
pub use streams::StreamKernel;
