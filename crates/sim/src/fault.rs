//! Compiled-in protocol mutations for the model checker's mutation-kill
//! harness.
//!
//! A model checker that never finds anything might be exhaustive — or
//! vacuous. To prove the former, `arbitree-check` re-runs its exploration
//! with one of these *deliberate protocol bugs* switched on and asserts a
//! violation is found for every one of them. Each variant disables exactly
//! one safety-critical step of the coordinator's transaction machine; with
//! [`crate::SimConfig::fault`] left at `None` (the default everywhere
//! outside the harness) the coordinator behaves exactly as before — the
//! hooks are pure branches, drawing no RNG and touching no state.
//!
//! The two remaining mutations of the harness (dropping a member from read
//! or write quorums) live in `arbitree-check` as [`ReplicaControl`]
//! wrappers: they corrupt the *protocol structure* rather than the
//! coordinator, and are caught by the structural bicoterie assertion as
//! well as by exploration.
//!
//! [`ReplicaControl`]: arbitree_quorum::ReplicaControl

/// A seeded coordinator-level protocol mutation (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Commit writes at the *gathered* timestamp instead of bumping past it:
    /// version ordering collapses and the checker's monotonicity /
    /// exact-read invariants break.
    SkipVersionBump,
    /// Treat a single commit acknowledgement as the full quorum: the
    /// transaction completes while participants still hold unapplied
    /// stages, so a later read can miss the "committed" write.
    StaleCommitAck,
    /// Drop the lock release when a transaction aborts: strict 2PL leaks
    /// the locks forever and later transactions on the same objects wedge
    /// in `LockWait` (caught as stuck operations at quiescence).
    KeepLocksOnAbort,
    /// Release the exclusive locks at the commit *point* instead of after
    /// the commit acknowledgements (the shared ones went when the read
    /// round ended): a reader admitted during the window can observe the
    /// pre-commit version after the writer already reported success.
    EarlyLockRelease,
    /// Keep counting a commit acknowledgement from a site that has since
    /// lost its storage and recovered into `Syncing`: the write can
    /// complete although the rejoined site may serve without it, so a
    /// later read through that site misses it.
    ForgetWipedAcks,
}

impl FaultInjection {
    /// Every coordinator-level mutation, in report order.
    pub const ALL: &'static [FaultInjection] = &[
        FaultInjection::SkipVersionBump,
        FaultInjection::StaleCommitAck,
        FaultInjection::KeepLocksOnAbort,
        FaultInjection::EarlyLockRelease,
        FaultInjection::ForgetWipedAcks,
    ];

    /// Stable display name (mutation-kill tables).
    pub fn name(&self) -> &'static str {
        match self {
            FaultInjection::SkipVersionBump => "skip-version-bump",
            FaultInjection::StaleCommitAck => "stale-commit-ack",
            FaultInjection::KeepLocksOnAbort => "keep-locks-on-abort",
            FaultInjection::EarlyLockRelease => "early-lock-release",
            FaultInjection::ForgetWipedAcks => "forget-wiped-acks",
        }
    }
}
