//! # arbitree-perfbench
//!
//! The repository's benchmark: whole `Simulation::run_with` runs of three
//! named workloads, timed end to end, with a separate traced run that
//! splits their wall time across the simulator's layers from outside the
//! program (see [`trace`]). `README.md` beside this crate defines every
//! metric.

pub mod measure;
pub mod trace;
pub mod workload;
