//! The Abstraction Layer (paper §IV-A).
//!
//! PMUs and their events vary across vendors and microarchitectures
//! (Table I). The abstraction layer maps *generic* event names onto
//! HW-specific PMU formulas through configuration files, so profiling
//! code is platform-agnostic:
//!
//! ```text
//! [pmu_name | alias]
//! <generic_event>:<hardware_event_1> [op]
//! [op] : ((+|-|*|/) (<hw_event> | <const>)) [op]
//! ```

mod config;
pub mod events;
mod expr;
mod pmu_utils;
pub mod presets;

pub use config::AbstractionLayer;
pub use expr::Formula;
pub use pmu_utils::PmuUtils;
