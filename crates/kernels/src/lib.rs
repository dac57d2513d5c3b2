//! # pmove-kernels — benchmark kernels with analytic ground truth
//!
//! The paper's accuracy study (Fig. 4) compares PMU samples against
//! `likwid-bench`, which executes *pre-determined, fixed numbers of
//! instruction streams* and reports the exact operation counts afterwards.
//! This crate plays that role:
//!
//! * [`StreamKernel`] — the six kernels of Figs. 4/5 (`sum`, `stream`,
//!   `triad`, `peakflops`, `ddot`, `daxpy`), each with its exact
//!   FLOP/load/store/byte accounting: ground truth by construction,
//!   including the theoretical arithmetic intensities the live-CARM study
//!   quotes (Triad 0.0625, PeakFlops 2, DDOT 0.125 — Fig. 9);
//! * [`hpcg`] — a compact but real HPCG for the `BenchmarkInterface`:
//!   27-point stencil operator, preconditioned CG with symmetric
//!   Gauss–Seidel, residual-verified.
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod ground_truth;
pub mod hpcg;
mod streams;

pub use streams::StreamKernel;
