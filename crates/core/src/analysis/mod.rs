//! Analysis utilities: automatic query generation, reports, anomaly scan.

mod anomaly;
pub mod queries;
pub mod report;
pub mod trace;

pub use anomaly::anomaly_scan;
pub use queries::queries_for_observation;
