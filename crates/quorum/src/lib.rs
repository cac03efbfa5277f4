//! # arbitree-quorum
//!
//! Quorum-system foundations for the `arbitree` workspace: the executable
//! form of §2 ("Preliminaries") of *An Arbitrary Tree-Structured Replica
//! Control Protocol* (Bahsoun, Basmadjian, Guerraoui — ICDCS 2008).
//!
//! The crate provides:
//!
//! * [`SiteId`] / [`Universe`] — replicas and the finite universe `U`;
//! * [`QuorumSet`] (alias [`AliveSet`]) — subsets of `U` as one bitset;
//! * [`SetSystem`] / [`Bicoterie`] — definitions 2.1–2.3 with validation
//!   (intersection property, coterie minimality, read/write cross
//!   intersection);
//! * [`Strategy`] — probability distributions over quorums (definition 2.4)
//!   and the loads they induce (definition 2.5);
//! * [`optimal_load`] — the exact optimal system load via a built-in
//!   [two-phase simplex solver](lp), plus [`certifies_lower_bound`]
//!   implementing proposition 2.1's optimality certificates;
//! * [availability] evaluators — exact enumeration and Monte-Carlo;
//! * the [`ReplicaControl`] trait implemented by every protocol in the
//!   workspace, with the paper's expected-load equations (equation 3.2).
//!
//! # Timestamps
//!
//! The paper's system model orders versions by `(version number, SID)`;
//! that timestamp type lives in `arbitree-core` next to the protocol.
//!
//! # Example
//!
//! ```
//! use arbitree_quorum::{optimal_load, QuorumSet, SetSystem, Strategy, Universe};
//!
//! // The majority quorum system over 3 replicas.
//! let system = SetSystem::new(
//!     Universe::new(3),
//!     vec![
//!         QuorumSet::from_indices([0, 1]),
//!         QuorumSet::from_indices([0, 2]),
//!         QuorumSet::from_indices([1, 2]),
//!     ],
//! )?;
//! assert!(system.is_coterie());
//!
//! let (load, strategy) = optimal_load(&system);
//! assert!((load - 2.0 / 3.0).abs() < 1e-7);
//! assert!((strategy.expected_cost(&system) - 2.0).abs() < 1e-7);
//! # Ok::<(), arbitree_quorum::QuorumError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod availability;
pub mod domination;
pub mod load;
pub mod lp;
mod quorum_set;
pub mod resilience;
mod shard;
mod site;
mod strategy;
mod system;
mod traits;

pub use availability::{
    binomial_pmf, binomial_tail, exact_availability, has_live_quorum, monte_carlo_availability,
    relative_error, steady_state_uptime, EXACT_AVAILABILITY_MAX_SITES,
};
pub use domination::{dominates, find_dominating_witness, is_dominated};
pub use load::{certifies_lower_bound, optimal_load, uniform_load, LOAD_TOLERANCE};
pub use quorum_set::{AliveSet, QuorumSet};
pub use resilience::{blocking_number, fault_tolerance, RESILIENCE_MAX_SITES};
pub use shard::{shard_index, ShardMap};
pub use site::{SiteId, Universe};
pub use strategy::{Strategy, StrategyError, PROBABILITY_TOLERANCE};
pub use system::{Bicoterie, QuorumError, SetSystem};
pub use traits::{
    expected_read_load, expected_write_load, pick_uniform_alive, CostProfile, ReplicaControl,
};
