//! Cache-Aware Roofline Model (§IV-B).

mod live;
pub mod microbench;
mod model;
pub mod plot;

pub use live::{LiveCarm, LiveCarmPoint};
pub use model::CarmModel;
