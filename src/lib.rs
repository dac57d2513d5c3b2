//! # pmove — facade crate
//!
//! Re-exports every P-MoVE crate under one roof so examples and downstream
//! users can write `use pmove::core::...` without tracking individual
//! workspace members.
//!
//! See the crate-level documentation of [`core`] for the framework itself
//! and `DESIGN.md` in the repository root for the system inventory.
#![forbid(unsafe_code)]

pub use pmove_core as core;
pub use pmove_docdb as docdb;
pub use pmove_hwsim as hwsim;
pub use pmove_jsonld as jsonld;
pub use pmove_kernels as kernels;
pub use pmove_obs as obs;
pub use pmove_pcp as pcp;
pub use pmove_serve as serve;
pub use pmove_spmv as spmv;
pub use pmove_tsdb as tsdb;
