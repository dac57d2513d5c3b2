//! Telemetry orchestration — the mechanics of §IV and Fig. 3.

pub(crate) mod daemon;
pub mod pinning;
pub mod scenario_a;
pub mod scenario_b;

pub use daemon::PMoveDaemon;
pub use pinning::PinningStrategy;
