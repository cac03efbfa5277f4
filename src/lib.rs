//! Facade crate re-exporting the `arbitree` workspace.
//!
//! Module aliases give access to every workspace crate; the flat
//! re-exports below cover the simulator's layered API (engine,
//! coordinator, protocol trait) and the parallel experiment runner so
//! examples and the CLI need no cross-crate imports.

#![forbid(unsafe_code)]

pub use arbitree_analysis as analysis;
pub use arbitree_baselines as baselines;
pub use arbitree_core as core;
pub use arbitree_quorum as quorum;
pub use arbitree_sim as sim;

pub use arbitree_core::ArbitraryProtocol;
pub use arbitree_quorum::ReplicaControl;
pub use arbitree_sim::{
    cell_seed, parallel_map, run_cells, run_simulation, Coordinator, Engine, ExperimentCell,
    FailureSchedule, SimConfig, SimDuration, SimReport, SimTime, Simulation,
};
