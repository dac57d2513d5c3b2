//! Dashboards — "each dashboard is only a simple JSON file" (Listing 1).

pub mod gen;
pub mod model;
pub mod render;

pub use model::Dashboard;
