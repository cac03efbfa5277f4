//! The mutation-kill harness: seeded protocol bugs the explorer must catch.
//!
//! A model checker that reports "zero violations" is only evidence of
//! correctness if it *would* report violations when the protocol is
//! broken. This module compiles seven deliberate bugs into the system — two
//! quorum-structure corruptions (implemented here as
//! [`ReplicaControl`] wrappers) and five coordinator faults
//! ([`FaultInjection`], compiled into `arbitree-sim` behind
//! `SimConfig::fault`) — and [`kill_all`] asserts the explorer finds an
//! invariant violation for every single one.

use crate::explore::{explore, Budget, ViolationReport};
use crate::scenario::Scenario;
use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::{AliveSet, CostProfile, QuorumSet, ReplicaControl, Universe};
use arbitree_sim::FaultInjection;
use rand::RngCore;

/// A seeded protocol mutation for the kill harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Read quorums silently skip one physical level (the root level): the
    /// quorum-intersection property breaks structurally, and reads can
    /// miss the level a write landed on.
    ReadSkipsLevel,
    /// Write quorums silently omit one member site: a read that lands on
    /// the omitted site sees a stale version.
    WriteMissingSite,
    /// A coordinator-level fault compiled into the simulator (see
    /// [`FaultInjection`]).
    Fault(FaultInjection),
}

impl Mutation {
    /// Every mutation, in report order.
    pub const ALL: &'static [Mutation] = &[
        Mutation::ReadSkipsLevel,
        Mutation::WriteMissingSite,
        Mutation::Fault(FaultInjection::SkipVersionBump),
        Mutation::Fault(FaultInjection::StaleCommitAck),
        Mutation::Fault(FaultInjection::KeepLocksOnAbort),
        Mutation::Fault(FaultInjection::EarlyLockRelease),
        Mutation::Fault(FaultInjection::ForgetWipedAcks),
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::ReadSkipsLevel => "read-skips-level",
            Mutation::WriteMissingSite => "write-missing-site",
            Mutation::Fault(f) => f.name(),
        }
    }

    /// The coordinator fault to compile in, if this is a coordinator
    /// mutation.
    pub fn fault(&self) -> Option<FaultInjection> {
        match self {
            Mutation::Fault(f) => Some(*f),
            _ => None,
        }
    }

    /// The scenario whose exploration is expected to kill this mutation.
    pub fn scenario(&self) -> Scenario {
        match self {
            // Quorum-structure corruptions need the two-level tree (on a
            // single level, skipping it leaves no quorum at all).
            Mutation::ReadSkipsLevel => Scenario::write_crash_recover(),
            Mutation::WriteMissingSite => Scenario::write_read_race(),
            Mutation::Fault(FaultInjection::SkipVersionBump) => Scenario::writers_race(),
            // The single-client sequential scenario: the read can only
            // start after the (premature) completion, so any stale value
            // it sees is an unambiguous violation near the end of the
            // schedule, where depth-first backtracking looks first.
            Mutation::Fault(FaultInjection::StaleCommitAck) => Scenario::write_then_read(),
            Mutation::Fault(FaultInjection::KeepLocksOnAbort) => Scenario::crash_abort(),
            Mutation::Fault(FaultInjection::EarlyLockRelease) => Scenario::write_read_race(),
            // The stale read is step 44 and the violation shows at step 46,
            // when that read completes. The search runs 4 steps past it,
            // so one more event before it (an extra tick, a reordered
            // retry) cannot push the kill out of the budget. The scenario
            // itself keeps depth 44, where the audit walks it.
            Mutation::Fault(FaultInjection::ForgetWipedAcks) => Scenario {
                smoke_depth: 50,
                ..Scenario::wipe_during_commit()
            },
        }
    }

    /// Builds the (possibly mutated) protocol for `spec`. `None` builds
    /// the pristine [`ArbitraryProtocol`].
    pub fn protocol(mutation: Option<&Mutation>, spec: &str) -> Box<dyn ReplicaControl> {
        let inner = ArbitraryProtocol::parse(spec).expect("valid scenario spec");
        match mutation {
            Some(Mutation::ReadSkipsLevel) => Box::new(ReadSkipsLevel { inner }),
            Some(Mutation::WriteMissingSite) => Box::new(WriteMissingSite { inner }),
            _ => Box::new(inner),
        }
    }
}

/// Outcome of one mutation-kill attempt.
#[derive(Debug, Clone)]
pub struct KillResult {
    /// Mutation name.
    pub mutation: &'static str,
    /// Scenario explored.
    pub scenario: &'static str,
    /// Whether a violation was found.
    pub killed: bool,
    /// The invariant that fired (`structural`, `consistency`,
    /// `stuck-ops`), or `"-"` if the mutation survived.
    pub kind: String,
    /// Schedules explored before the kill (0 for structural kills).
    pub schedules: u64,
    /// The violating schedule, replayable step by step.
    pub violation: Option<ViolationReport>,
}

/// Explores one mutation's target scenario and reports whether the
/// explorer killed it.
pub fn kill_one(mutation: &Mutation, budget: Budget) -> KillResult {
    let scenario = mutation.scenario();
    // Search at the target's smoke depth, whatever the budget's: for an
    // exhaustive-tier scenario that is its drainable depth, so a kill is
    // a violation inside the envelope the unmutated exploration exhausts,
    // and deeper bounds only feed the DFS an unbounded retry-cycle tail to
    // drown in. A bounded-tier target may set it past the smoke budget's
    // depth to leave its kill headroom.
    let budget = budget.with_depth(scenario.smoke_depth);
    let outcome = explore(&scenario, Some(mutation), budget);
    KillResult {
        mutation: mutation.name(),
        scenario: scenario.name,
        killed: outcome.violation.is_some(),
        kind: outcome
            .violation
            .as_ref()
            .map_or_else(|| "-".to_string(), |v| v.kind.clone()),
        schedules: outcome.stats.schedules,
        violation: outcome.violation,
    }
}

/// Runs the whole kill matrix.
pub fn kill_all(budget: Budget) -> Vec<KillResult> {
    Mutation::ALL.iter().map(|m| kill_one(m, budget)).collect()
}

/// Wrapper dropping the root-level member from every read quorum.
#[derive(Debug)]
struct ReadSkipsLevel {
    inner: ArbitraryProtocol,
}

/// Wrapper dropping the highest-numbered member from every write quorum.
#[derive(Debug)]
struct WriteMissingSite {
    inner: ArbitraryProtocol,
}

/// Removes the lowest site id from a quorum — for the tree specs the
/// scenarios use, site ids are assigned level by level, so the minimum
/// member of a read quorum is its root-level representative.
fn drop_min(q: QuorumSet) -> QuorumSet {
    let min = q.iter().min();
    QuorumSet::from_sites(q.iter().filter(|s| Some(*s) != min))
}

fn drop_max(q: QuorumSet) -> QuorumSet {
    let max = q.iter().max();
    QuorumSet::from_sites(q.iter().filter(|s| Some(*s) != max))
}

impl ReplicaControl for ReadSkipsLevel {
    fn name(&self) -> &str {
        "ARBITRARY/read-skips-level"
    }
    fn describe(&self) -> String {
        format!("{} (read skips root level)", self.inner.describe())
    }
    fn universe(&self) -> Universe {
        self.inner.universe()
    }
    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(self.inner.read_quorums().map(drop_min))
    }
    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        self.inner.write_quorums()
    }
    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let picked = drop_min(self.inner.pick_read_quorum(alive, rng)?);
        (!picked.is_empty()).then_some(picked)
    }
    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        self.inner.pick_write_quorum(alive, rng)
    }
    fn read_cost(&self) -> CostProfile {
        self.inner.read_cost()
    }
    fn write_cost(&self) -> CostProfile {
        self.inner.write_cost()
    }
    fn read_availability(&self, p: f64) -> f64 {
        self.inner.read_availability(p)
    }
    fn write_availability(&self, p: f64) -> f64 {
        self.inner.write_availability(p)
    }
    fn read_load(&self) -> f64 {
        self.inner.read_load()
    }
    fn write_load(&self) -> f64 {
        self.inner.write_load()
    }
}

impl ReplicaControl for WriteMissingSite {
    fn name(&self) -> &str {
        "ARBITRARY/write-missing-site"
    }
    fn describe(&self) -> String {
        format!("{} (write misses one site)", self.inner.describe())
    }
    fn universe(&self) -> Universe {
        self.inner.universe()
    }
    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        self.inner.read_quorums()
    }
    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(self.inner.write_quorums().map(drop_max))
    }
    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        self.inner.pick_read_quorum(alive, rng)
    }
    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let picked = drop_max(self.inner.pick_write_quorum(alive, rng)?);
        (!picked.is_empty()).then_some(picked)
    }
    fn read_cost(&self) -> CostProfile {
        self.inner.read_cost()
    }
    fn write_cost(&self) -> CostProfile {
        self.inner.write_cost()
    }
    fn read_availability(&self, p: f64) -> f64 {
        self.inner.read_availability(p)
    }
    fn write_availability(&self, p: f64) -> f64 {
        self.inner.write_availability(p)
    }
    fn read_load(&self) -> f64 {
        self.inner.read_load()
    }
    fn write_load(&self) -> f64 {
        self.inner.write_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_protocols_are_bicoteries() {
        for spec in ["1-3", "p:1-3"] {
            Mutation::protocol(None, spec)
                .to_bicoterie()
                .expect("pristine protocol must satisfy quorum intersection");
        }
    }

    #[test]
    fn quorum_mutations_break_the_structure() {
        assert!(Mutation::protocol(Some(&Mutation::ReadSkipsLevel), "p:1-3")
            .to_bicoterie()
            .is_err());
        assert!(Mutation::protocol(Some(&Mutation::WriteMissingSite), "1-3")
            .to_bicoterie()
            .is_err());
    }

    #[test]
    fn mutation_names_are_distinct() {
        let mut names: Vec<&str> = Mutation::ALL.iter().map(Mutation::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Mutation::ALL.len());
    }
}
