//! # pmove-spmv — sparse-matrix substrate
//!
//! The paper demonstrates P-MoVE's live monitoring on Sparse Matrix–Vector
//! multiplication (§V-D/E): Intel MKL's vectorized SpMV vs the merge-based
//! SpMV of Merrill & Garland, over five SuiteSparse matrices in original
//! and RCM-reordered form. This crate provides all of that machinery:
//!
//! * [`coo`] / [`csr`] — sparse matrix formats and conversions;
//! * [`gen`] — deterministic generators for the structure classes of the
//!   paper's matrices (2D/3D meshes, banded FEM blocks, dense biological
//!   correlation blocks, uniform random);
//! * [`suite`] — scaled stand-ins for the five Table IV matrices;
//! * [`reorder`] — Reverse Cuthill–McKee (real BFS implementation), degree
//!   sort, random permutation, identity; symmetric permutation application;
//! * [`bandwidth`] — bandwidth/profile locality metrics;
//! * [`row`] — row-parallel CSR SpMV (the MKL stand-in, rayon-parallel);
//! * [`merge`] — merge-path SpMV (real 2-D diagonal binary-search
//!   partitioning per Merrill & Garland);
//! * [`profile`] — derivation of `pmove_hwsim`-style kernel profiles
//!   (`KernelProfile` lives in hwsim; here we compute FLOP/byte/locality
//!   numbers from the matrix structure) — the bridge that lets the machine
//!   simulator monitor these kernels;
//! * [`verify`] — reference implementation and result comparison.
#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod coo;
pub mod csr;
pub mod gen;
pub mod merge;
pub mod profile;
pub mod reorder;
pub mod row;
pub mod suite;
pub mod verify;

pub use coo::Coo;
pub use csr::Csr;
pub use reorder::Reordering;
pub use suite::SuiteMatrix;
