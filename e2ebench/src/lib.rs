//! End-to-end and per-layer benchmark of the repository's `Runtime::Sim`
//! runtime, driven from outside the program through its public entry
//! points only. README.md in this directory describes the workloads and
//! which layer metric should move which end-to-end metric.

pub mod checks;
pub mod cpus;
pub mod fleet;
pub mod measure;
pub mod timed;
pub mod workloads;

pub use measure::{measure, Config, Report, END_TO_END, PER_LAYER};
pub use workloads::{Size, Workload};
