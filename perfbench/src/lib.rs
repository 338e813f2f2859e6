//! The epa engine's benchmark: four workloads over the public engine API,
//! end-to-end metrics from untraced runs and per-layer metrics from traced
//! runs. See `README.md` in this directory.

pub mod metrics;
pub mod probe;
pub mod stats;
pub mod traced;
pub mod workload;
