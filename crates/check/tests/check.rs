//! Integration tests for the model checker: the unmutated protocol
//! survives exhaustive exploration on both required tree shapes, and
//! every seeded mutation is killed.
//!
//! Budgets here are trimmed for debug-build test time; the CI smoke run
//! (`cargo run -p arbitree-check --release -- --smoke`) exercises the
//! full smoke budgets.

use arbitree_check::{explore, kill_all, kill_one, Budget, Mutation, Scenario};
use arbitree_sim::FaultInjection;

fn test_budget(depth: usize) -> Budget {
    Budget {
        max_depth: depth,
        max_states: 1_000_000,
        max_schedules: 1_000_000,
        dpor: true,
        object_independence: true,
        wide: false,
    }
}

#[test]
fn exhaustive_single_level_tree_has_no_violations() {
    let s = Scenario::write_then_read();
    let outcome = explore(&s, None, test_budget(14));
    assert!(
        outcome.complete,
        "exploration must drain: {:?}",
        outcome.stats
    );
    assert!(
        outcome.violation.is_none(),
        "unmutated protocol must be clean: {:?}",
        outcome.violation
    );
    assert!(
        outcome.stats.schedules > 1_000,
        "space should be non-trivial"
    );
    assert_eq!(
        (outcome.stats.states, outcome.stats.schedules),
        (PIN_SINGLE_STATES, PIN_SINGLE_SCHEDULES),
        "exploration counts moved"
    );
}

#[test]
fn exhaustive_two_level_tree_has_no_violations() {
    let s = Scenario::write_then_read_tree();
    let outcome = explore(&s, None, test_budget(20));
    assert!(
        outcome.complete,
        "exploration must drain: {:?}",
        outcome.stats
    );
    assert!(
        outcome.violation.is_none(),
        "unmutated protocol must be clean: {:?}",
        outcome.violation
    );
    assert!(
        outcome.stats.schedules > 1_000,
        "space should be non-trivial"
    );
    assert_eq!(
        (outcome.stats.states, outcome.stats.schedules),
        (PIN_TWO_STATES, PIN_TWO_SCHEDULES),
        "exploration counts moved"
    );
}

/// The one scenario with batching and read-repair on, explored under a
/// schedule cap (its full space exceeds any debug-build budget). The
/// pinned counts guard the coordinator's batched read rounds and the
/// fingerprint of their state.
#[test]
fn batched_repair_bounded_exploration_is_pinned() {
    let s = Scenario::batched_repair();
    let outcome = explore(&s, None, test_budget(s.smoke_depth).capped(100_000));
    assert!(
        outcome.violation.is_none(),
        "unmutated protocol must be clean: {:?}",
        outcome.violation
    );
    assert_eq!(
        (outcome.stats.states, outcome.stats.schedules),
        (PIN_BATCHED_STATES, PIN_BATCHED_SCHEDULES),
        "exploration counts moved"
    );
}

// Explored-state and schedule counts at the budgets above. The
// fingerprint deduplicates states, so a change to what it hashes (or to
// the coordinator's behaviour) moves these counts. The batched states
// were re-taken once (53,787 -> 60,018) when a read retry began re-sending
// only the objects still owed a response and keeping the responses
// already gathered: a premature timeout now leads to other states.
//
// All three rows were re-taken once more when a first attempt began
// timing out after its client's measured round trip instead of
// `op_timeout`: single (25,221, 73,450) -> (25,919, 81,397), two-level
// (10,546, 34,477) -> (10,736, 36,881), batched states 60,018 -> 57,772.
// The explorer walks the enabled events in `(time, seq)` order, and the
// timers now fall due at other times, so it tries them in another order;
// with the enabled events taken in `seq` order alone, the change and its
// parent explore the same counts in every row. The batched row moved
// again (57,772 -> 63,292) when a read retry stopped asking re-picked
// members that already answered: a premature timeout sends fewer requests.
const PIN_SINGLE_STATES: u64 = 25919;
const PIN_SINGLE_SCHEDULES: u64 = 81397;
const PIN_TWO_STATES: u64 = 10736;
const PIN_TWO_SCHEDULES: u64 = 36881;
const PIN_BATCHED_STATES: u64 = 63292;
const PIN_BATCHED_SCHEDULES: u64 = 100000;

#[test]
fn dpor_explores_fewer_schedules_than_naive() {
    let s = Scenario::write_then_read();
    let b = test_budget(14);
    let dpor = explore(&s, None, b);
    let naive = explore(&s, None, b.naive());
    assert!(dpor.complete && naive.complete);
    assert!(
        dpor.stats.schedules < naive.stats.schedules,
        "dpor {} !< naive {}",
        dpor.stats.schedules,
        naive.stats.schedules
    );
}

#[test]
fn all_mutations_are_killed() {
    let results = kill_all(Budget::smoke());
    for r in &results {
        assert!(
            r.killed,
            "mutation {} must be killed on scenario {} (explored {} schedules)",
            r.mutation, r.scenario, r.schedules
        );
        let v = r.violation.as_ref().unwrap();
        assert!(!v.kind.is_empty() && !v.detail.is_empty());
        // Behavioural kills must come with a replayable schedule;
        // structural kills (bicoterie check) legitimately have none.
        if v.kind != "structural" {
            assert!(
                !v.schedule.is_empty(),
                "{}: behavioural kill must carry its schedule",
                r.mutation
            );
        }
    }
    assert_eq!(results.len(), Mutation::ALL.len());
}

#[test]
fn quorum_mutations_are_killed_structurally() {
    for m in [Mutation::ReadSkipsLevel, Mutation::WriteMissingSite] {
        let r = kill_one(&m, Budget::smoke());
        assert!(r.killed, "{} must be killed", r.mutation);
        assert_eq!(r.kind, "structural");
        assert_eq!(r.schedules, 0, "structural kills need no exploration");
    }
}

#[test]
fn stale_commit_ack_kill_reports_a_stale_read() {
    let m = Mutation::Fault(FaultInjection::StaleCommitAck);
    let r = kill_one(&m, Budget::smoke());
    assert!(r.killed);
    assert_eq!(r.kind, "consistency");
    let v = r.violation.unwrap();
    assert!(
        v.schedule.iter().any(|l| l.contains("CommitAck")),
        "schedule should show the premature acknowledgement path"
    );
}

#[test]
fn forget_wiped_acks_kill_has_depth_headroom() {
    // The kill search runs at the mutation's kill depth; one more event
    // before the stale read (an extra tick, a reordered retry) must not
    // push the violation past it.
    let m = Mutation::Fault(FaultInjection::ForgetWipedAcks);
    let r = kill_one(&m, Budget::smoke());
    assert!(r.killed);
    assert_eq!(r.kind, "consistency");
    let steps = r.violation.unwrap().schedule.len();
    let depth = m.kill_depth();
    assert!(
        steps + 4 <= depth,
        "the violation shows at step {steps} of a {depth}-step search"
    );
}

#[test]
fn cross_shard_ablation_drains_with_refined_fewest_schedules() {
    drain_ablation(&Scenario::cross_shard());
}

/// The unbatched two-object transfer against a reader of both objects,
/// across shards: every ablation mode drains clean at the drain depth,
/// and the counts are pinned.
#[test]
fn transfer_drains_clean_with_pinned_counts() {
    assert_eq!(drain_ablation(&Scenario::transfer()), PIN_TRANSFER_DRAIN);
}

// Schedules to drain `transfer` at its smoke depth: refined, site-only,
// naive. Site-only was re-taken once (8,731 -> 8,743) when first attempts
// began timing out after the measured round trip: the explorer's
// `(time, seq)` order of the enabled timers changed (see above).
// Site-only and naive were re-taken once more (8,743 -> 8,719 and
// 15,596 -> 15,536) when the fingerprint began hashing each site's
// storage in sorted object order: those two modes reach states that
// differ only in the order two objects were committed, which now match.
const PIN_TRANSFER_DRAIN: [u64; 3] = [8239, 8719, 15536];

/// Explores `s` at its drain depth under the refined, site-only and naive
/// relations; each must drain without a violation, in strictly fewer
/// schedules the finer the relation. Returns the three schedule counts.
fn drain_ablation(s: &Scenario) -> [u64; 3] {
    let b = test_budget(s.smoke_depth);
    let refined = explore(s, None, b);
    let coarse = explore(s, None, b.coarse());
    let naive = explore(s, None, b.naive());
    for (name, out) in [
        ("refined", &refined),
        ("coarse", &coarse),
        ("naive", &naive),
    ] {
        assert!(
            out.complete,
            "{name} must drain at the scenario's drain depth"
        );
        assert!(out.violation.is_none(), "{name}: {:?}", out.violation);
    }
    // The object-tagged relation commutes strictly more event pairs than
    // the site-only one, which commutes strictly more than none — so the
    // drain costs must be strictly ordered.
    assert!(
        refined.stats.schedules < coarse.stats.schedules,
        "object tags must prune schedules: {} vs {}",
        refined.stats.schedules,
        coarse.stats.schedules
    );
    assert!(
        coarse.stats.schedules < naive.stats.schedules,
        "dpor must prune schedules: {} vs {}",
        coarse.stats.schedules,
        naive.stats.schedules
    );
    [
        refined.stats.schedules,
        coarse.stats.schedules,
        naive.stats.schedules,
    ]
}
