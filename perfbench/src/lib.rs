//! The repository benchmark: the tapo CLI pipelines timed end to end, and
//! an in-process traced run that attributes their cost to layers.
//!
//! See `perfbench/README.md` for the metrics, workloads and known gaps.

pub mod child;
pub mod e2e;
pub mod feeder;
pub mod host;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod summary;
pub mod traced;
pub mod workload;
