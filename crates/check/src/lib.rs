//! # arbitree-check
//!
//! A stateless model checker for the deterministic simulator: instead of
//! firing pending events in seeded `(time, seq)` order, the explorer
//! treats *every* pending event as enabled and drives a depth-first search
//! over event orderings through the [`arbitree_sim::Scheduler`] seam —
//! same-time deliveries, timeout-vs-delivery races, and crash-vs-commit
//! races all become explicit branches.
//!
//! Three mechanisms keep small configurations (3–6 sites, one or two
//! physical levels) tractable:
//!
//! * **state fingerprinting** ([`arbitree_sim::Simulation::fingerprint`],
//!   a hash of the state's fields with storage in sorted object order)
//!   prunes schedules that re-converge to an already-visited logical
//!   state;
//! * **sleep sets** (Godefroid's partial-order reduction) skip orderings
//!   that only commute independent events — events touching disjoint
//!   sites, or a site-local delivery against coordinator-side work;
//! * **budgets** bound depth, distinct states, and schedule count so CI
//!   smoke runs stay within seconds.
//!
//! Every explored schedule is checked against the simulator's online
//! one-copy invariants (no version regression, reads see exactly the
//! committed timestamp/value) plus a quiescence invariant (no transaction
//! wedged once the event queue drains), and each configuration is checked
//! once against the structural quorum-intersection property via
//! [`arbitree_quorum::ReplicaControl::to_bicoterie`].
//!
//! The companion [`mutations`] harness proves the explorer is not
//! vacuous: seven seeded protocol mutations (two quorum-structure wrappers,
//! five coordinator faults from [`arbitree_sim::FaultInjection`]) must
//! *each* produce a violation.
//!
//! The [`audit`] module turns the same machinery on the checker itself:
//! a commutativity oracle replays claimed-independent event pairs in both
//! orders and demands identical fingerprints, a second mutation
//! harness seeds over-coarsened independence relations the oracle must
//! refute, and a collision audit measures how often distinct
//! states share a 64-bit fingerprint (the [`Budget::wide`] flag runs the
//! explorer's visited set on the 128-bit lane for comparison).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod explore;
pub mod mutations;
pub mod scenario;

pub use audit::{
    audit_scenario, relation_kill_all, relation_kill_one, AuditBudget, AuditOutcome, AuditStats,
    PairMismatch, RelationKill, RelationMutation,
};
pub use explore::{explore, Budget, ExploreOutcome, ExploreStats, Termination, ViolationReport};
pub use mutations::{kill_all, kill_one, KillResult, Mutation};
pub use scenario::{Scenario, ScriptStep};
