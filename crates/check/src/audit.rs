//! `arbitree-audit`: soundness auditing for the explorer's independence
//! relation.
//!
//! Everything DPOR prunes, it prunes because the hand-written relation in
//! [`crate::explore`](mod@crate::explore) says two events commute. PR 4's mutation-kill
//! harness audits the *protocol*; this module audits the *checker*, in
//! three parts:
//!
//! 1. **Commutativity oracle** ([`audit_scenario`]) — a breadth-first
//!    walk over reachable states (visited-state pruning only; sleep sets
//!    would be circular, since they trust the very relation under audit)
//!    that, at every newly
//!    visited frontier, enumerates co-pending event pairs the relation
//!    claims independent and replays `prefix + [a, b]` and
//!    `prefix + [b, a]` from fresh simulations over the
//!    [`arbitree_sim::ReplayScheduler`] seam. The two runs must reach
//!    identical states — compared by [`Simulation::fingerprint`], which
//!    hashes per-site storage in sorted object order so that genuinely
//!    commuting pairs whose execution permutes `DetMap` *insertion* order
//!    are not reported as divergent. A scheduled key that vanishes before its turn ("a
//!    disables b") is its own mismatch kind. Every mismatch carries a
//!    replayable trace.
//! 2. **Independence mutation harness** ([`RelationMutation`],
//!    [`relation_kill_all`]) — deliberately over-coarsened relations, one
//!    per `Class` arm the relation gets right; the oracle must refute
//!    every one of them. A seeded unsoundness the oracle cannot kill
//!    would mean the oracle is too weak to defend the real relation.
//! 3. **Fingerprint collision audit** — the walk keys its visited set on
//!    the 128-bit fingerprint lane and records how many
//!    distinct states share a 64-bit value ([`AuditStats::fp_collisions`]);
//!    [`Budget::wide`](crate::Budget) runs the *explorer* itself in
//!    128-bit mode so its state/schedule counts can be compared against
//!    the narrow run.
//!
//! The oracle checks commutation *at every visited state*, which is the
//! obligation DPOR actually discharges with the relation: exhaustive on
//! the drained tiers, budget-sampled (with the budget recorded) on the
//! bounded tier.

use crate::explore::{classify, describe_event, independent, Class};
use crate::scenario::Scenario;
use arbitree_sim::{Endpoint, Event, EventKey, Payload, ReplayScheduler, Scheduler, Simulation};
use std::collections::{HashMap, HashSet};

/// Budgets for one audit walk. The walk is breadth-first and deliberately
/// unreduced, so bounded-tier scenarios exhaust these budgets rather than
/// draining; the outcome records which.
#[derive(Debug, Clone, Copy)]
pub struct AuditBudget {
    /// Maximum schedule length for the walk.
    pub max_depth: usize,
    /// Maximum distinct states visited.
    pub max_states: usize,
    /// Maximum schedules (re-executions) for the walk.
    pub max_schedules: u64,
    /// Maximum commutativity pair checks (each costs two fresh replays).
    pub max_pairs: u64,
}

impl AuditBudget {
    /// Effectively unbounded states/schedules/pairs at a fixed depth —
    /// for the exhaustive tier, which must drain.
    pub fn exhaustive(depth: usize) -> AuditBudget {
        AuditBudget {
            max_depth: depth,
            max_states: 4_000_000,
            max_schedules: 4_000_000,
            max_pairs: 4_000_000,
        }
    }

    /// The recorded sample budget for the bounded tier.
    pub fn sampled(smoke: bool) -> AuditBudget {
        if smoke {
            AuditBudget {
                max_depth: 24,
                max_states: 4_000,
                max_schedules: 4_000,
                max_pairs: 1_200,
            }
        } else {
            AuditBudget {
                max_depth: 30,
                max_states: 40_000,
                max_schedules: 40_000,
                max_pairs: 10_000,
            }
        }
    }

    /// Budget for hunting a seeded relation mutation: deep enough to reach
    /// the frontier the mutation mis-classifies, generous pair allowance
    /// (the hunt stops at the first mismatch anyway).
    pub fn kill(depth: usize) -> AuditBudget {
        AuditBudget {
            max_depth: depth,
            max_states: 400_000,
            max_schedules: 400_000,
            max_pairs: 400_000,
        }
    }
}

/// Counters reported by [`audit_scenario`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditStats {
    /// Walk schedules executed.
    pub schedules: u64,
    /// Distinct states visited.
    pub states: u64,
    /// Walk runs cut at the depth budget.
    pub truncated: u64,
    /// Walk runs cut because the frontier state was already visited.
    pub pruned_visited: u64,
    /// Co-pending pairs the relation claimed independent (pre-dedup).
    pub pairs_claimed: u64,
    /// Deduplicated pairs actually replayed in both orders.
    pub pairs_checked: u64,
    /// Deduplicated pairs skipped at the pair budget.
    pub pairs_skipped: u64,
    /// Distinct 64-bit fingerprints seen.
    pub fp64_distinct: u64,
    /// Distinct 128-bit states whose 64-bit fingerprint collided with an
    /// earlier distinct state (each such state would have been wrongly
    /// merged by a 64-bit visited set).
    pub fp_collisions: u64,
    /// Deepest walk schedule seen.
    pub max_depth_seen: usize,
}

/// One refuted independence claim, with a replayable trace.
#[derive(Debug, Clone)]
pub struct PairMismatch {
    /// `state-divergence` (both orders ran, final states differ) or
    /// `disables` (one order lost the second event before its turn).
    pub kind: String,
    /// What diverged, with both fingerprints or the vanished
    /// key.
    pub detail: String,
    /// The events of the refuted pair, human-readable.
    pub pair: (String, String),
    /// Replayable trace: the shared prefix, then the pair in first-order
    /// position (steps `n-1`, `n`); the refutation re-runs the same
    /// prefix with the final two steps swapped.
    pub schedule: Vec<String>,
}

/// Result of auditing one (scenario, relation) pair.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Walk and pair counters.
    pub stats: AuditStats,
    /// Every refuted independence claim found (first only, when the
    /// caller stops at first).
    pub mismatches: Vec<PairMismatch>,
    /// `true` when the walk drained the state space within every budget
    /// *and* no deduplicated pair was skipped: the relation was checked
    /// exhaustively at this depth. Bounded-tier audits report `false` by
    /// construction — they are samples at a recorded budget.
    pub complete: bool,
}

/// A deliberately over-coarsened independence relation — one seeded
/// unsoundness per `Class` arm the real relation treats carefully. The
/// oracle must kill every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationMutation {
    /// Site-only collapse of the `Global` arm: anti-entropy responses and
    /// live `SyncRetry`s become site-local, an amnesia-path `Recover`
    /// becomes a plain site fault. Wrong because all of them move
    /// coordinator-visible serving state or draw the shared run RNG.
    GlobalAsSiteLocal,
    /// The `Some`-guard on the same-site object comparison dropped:
    /// `None`-tagged envelopes and range probes become independent of any
    /// `Some`-tagged delivery on the same site (`None != Some(_)`).
    ObjectTagUnguarded,
    /// Live `SyncRetry` treated like the *stale* ones: classified `NoOp`,
    /// independent of everything — including the anti-entropy response
    /// that would have completed the session it restarts.
    SyncRetryNoOp,
    /// A `Batch` envelope tagged with its first inner payload's object,
    /// as if it were a single-object delivery — the exact unsoundness the
    /// conservative `Payload::object() == None` invariant exists to
    /// prevent.
    BatchFirstObject,
    /// The `Coordinator` arm split per client: two different clients'
    /// coordinator events claimed independent. Wrong because all clients
    /// share the lock tables and the run RNG.
    CoordinatorPerClient,
}

impl RelationMutation {
    /// Every seeded relation mutation.
    pub const ALL: [RelationMutation; 5] = [
        RelationMutation::GlobalAsSiteLocal,
        RelationMutation::ObjectTagUnguarded,
        RelationMutation::SyncRetryNoOp,
        RelationMutation::BatchFirstObject,
        RelationMutation::CoordinatorPerClient,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            RelationMutation::GlobalAsSiteLocal => "global-as-site-local",
            RelationMutation::ObjectTagUnguarded => "object-tag-unguarded",
            RelationMutation::SyncRetryNoOp => "sync-retry-noop",
            RelationMutation::BatchFirstObject => "batch-first-object",
            RelationMutation::CoordinatorPerClient => "coordinator-per-client",
        }
    }

    /// The scenario whose schedules expose this over-coarsening: the pair
    /// it wrongly splits must genuinely fail to commute somewhere
    /// reachable.
    pub fn scenario(self) -> Scenario {
        match self {
            // Rejoin traffic: serving flips and RNG draws racing 2PC.
            RelationMutation::GlobalAsSiteLocal | RelationMutation::SyncRetryNoOp => {
                Scenario::amnesia_rejoin()
            }
            // A range probe reads the *whole* committed store of its
            // site, so a co-pending single-object `Commit` to that site
            // changes the probe's response. The rejoin's source is a
            // write-quorum mate, so the commit must be one the wiped site
            // also owes: the wipe lands while it is still being gathered.
            RelationMutation::ObjectTagUnguarded => Scenario::wipe_during_commit(),
            // A `Repair {obj 1}` racing a `Batch` that carries a
            // `ReadReq {obj 1}` at the same site.
            RelationMutation::BatchFirstObject => Scenario::batched_repair(),
            // Two clients' coordinator events interleave on the shared
            // run RNG from the very first frontier.
            RelationMutation::CoordinatorPerClient => Scenario::writers_race(),
        }
    }
}

/// Event class under a possibly-mutated relation. The real relation only
/// ever produces `Base`; the per-client coordinator mutation needs an
/// extra shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AuditClass {
    Base(Class),
    PerClientCoordinator(u32),
}

/// Classifies `event` under `mutation` (or the real relation for `None`).
fn audit_class(
    sim: &Simulation,
    key: EventKey,
    event: &Event,
    mutation: Option<RelationMutation>,
) -> AuditClass {
    let base = classify(sim, key, event);
    let Some(m) = mutation else {
        return AuditClass::Base(base);
    };
    // Events the real relation already calls permanent no-ops stay that
    // way: the mutations over-coarsen live classifications only.
    if base == Class::NoOp {
        return AuditClass::Base(base);
    }
    match m {
        RelationMutation::GlobalAsSiteLocal => match event {
            Event::Deliver(msg) => {
                if let (
                    Endpoint::Site(s),
                    Payload::RangeHashResp { .. } | Payload::RangeFill { .. },
                ) = (msg.to, &msg.payload)
                {
                    AuditClass::Base(Class::Site(s.as_u32(), None))
                } else {
                    AuditClass::Base(base)
                }
            }
            Event::SyncRetry { site, .. } if base == Class::Global => {
                AuditClass::Base(Class::Site(site.as_u32(), None))
            }
            Event::Recover(s) if base == Class::Global => {
                AuditClass::Base(Class::Fault(s.as_u32()))
            }
            _ => AuditClass::Base(base),
        },
        // Classification unchanged; the independence check is what drops
        // the guard (see `audit_independent`).
        RelationMutation::ObjectTagUnguarded => AuditClass::Base(base),
        RelationMutation::SyncRetryNoOp => {
            if matches!(event, Event::SyncRetry { .. }) {
                AuditClass::Base(Class::NoOp)
            } else {
                AuditClass::Base(base)
            }
        }
        RelationMutation::BatchFirstObject => {
            if let Event::Deliver(msg) = event {
                if let (Endpoint::Site(s), Payload::Batch(inner)) = (msg.to, &msg.payload) {
                    let tag = inner.first().and_then(Payload::object).map(|o| o.0);
                    return AuditClass::Base(Class::Site(s.as_u32(), tag));
                }
            }
            AuditClass::Base(base)
        }
        RelationMutation::CoordinatorPerClient => {
            if base != Class::Coordinator {
                return AuditClass::Base(base);
            }
            let client = match event {
                Event::Deliver(msg) => match msg.to {
                    Endpoint::Client(c) => c.0,
                    Endpoint::Site(_) => return AuditClass::Base(base),
                },
                Event::ClientTick(c) => c.0,
                Event::OpTimeout { client, .. } => client.0,
                _ => return AuditClass::Base(base),
            };
            AuditClass::PerClientCoordinator(client)
        }
    }
}

/// The (possibly mutated) independence check over audit classes.
fn audit_independent(mutation: Option<RelationMutation>, a: AuditClass, b: AuditClass) -> bool {
    match (a, b) {
        (AuditClass::PerClientCoordinator(x), AuditClass::PerClientCoordinator(y)) => x != y,
        (AuditClass::PerClientCoordinator(_), AuditClass::Base(c))
        | (AuditClass::Base(c), AuditClass::PerClientCoordinator(_)) => {
            independent(Class::Coordinator, c)
        }
        (AuditClass::Base(x), AuditClass::Base(y)) => {
            if mutation == Some(RelationMutation::ObjectTagUnguarded) {
                if let (Class::Site(sx, ox), Class::Site(sy, oy)) = (x, y) {
                    // The over-coarsening: compare raw `Option` tags, so
                    // `None` vs `Some(_)` reads as "different objects".
                    return sx != sy || ox != oy;
                }
            }
            independent(x, y)
        }
    }
}

/// A deferred commutativity check: replay `prefix` then the pair in both
/// orders.
#[derive(Debug)]
struct PairJob {
    prefix: Vec<EventKey>,
    a: EventKey,
    b: EventKey,
}

/// One explored schedule prefix, stored as a parent pointer into the
/// walk's arena so the breadth-first queue stays flat (a prefix is
/// reconstructed by walking to the root).
#[derive(Debug, Clone, Copy)]
struct Node {
    parent: u32,
    key: EventKey,
}

#[derive(Debug)]
struct Walk {
    budget: AuditBudget,
    mutation: Option<RelationMutation>,
    /// Prefix arena; index 0 is the empty-prefix sentinel.
    arena: Vec<Node>,
    /// Visited 128-bit states.
    visited: HashSet<u128>,
    /// Collision audit: 64-bit fingerprint → the distinct
    /// 128-bit states observed under it.
    by64: HashMap<u64, Vec<u128>>,
    /// Pair dedup: (state, unordered shape-hash pair).
    checked: HashSet<(u128, u64, u64)>,
    /// Jobs collected at the frontier the current expansion opened.
    pending_jobs: Vec<PairJob>,
    stats: AuditStats,
    hit_state_budget: bool,
}

impl Walk {
    /// The schedule prefix a node id stands for, root-first.
    fn prefix_of(&self, mut id: u32) -> Vec<EventKey> {
        let mut prefix = Vec::new();
        while id != 0 {
            let node = self.arena[id as usize];
            prefix.push(node.key);
            id = node.parent;
        }
        prefix.reverse();
        prefix
    }
}

/// Per-expansion driver: replays one queued prefix, then — if the
/// frontier state is new — collects claimed-independent pairs there and
/// enqueues every one-step extension. The walk is breadth-first and
/// deliberately unreduced (no sleep sets: it must not trust the relation
/// it is auditing); breadth-first order means refutations are found at
/// their shallowest reachable frontier instead of after exhausting the
/// tail of a deep depth-first stack.
#[derive(Debug)]
struct ExpandScheduler<'a> {
    walk: &'a mut Walk,
    /// Arena id of the prefix under expansion.
    id: u32,
    prefix: Vec<EventKey>,
    i: usize,
    /// One-step extensions to enqueue, filled at the frontier.
    children: Vec<u32>,
}

impl Scheduler for ExpandScheduler<'_> {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        if self.i < self.prefix.len() {
            let key = self.prefix[self.i];
            self.i += 1;
            return Some(key);
        }
        let w = &mut *self.walk;
        let depth = self.prefix.len();
        w.stats.max_depth_seen = w.stats.max_depth_seen.max(depth);
        let queue = sim.engine().queue();
        let enabled: Vec<EventKey> = queue.keys().collect();
        if enabled.is_empty() {
            return None;
        }
        if w.visited.len() >= w.budget.max_states {
            w.hit_state_budget = true;
            return None;
        }
        let (c64, c128) = sim.fingerprint();
        if !w.visited.insert(c128) {
            w.stats.pruned_visited += 1;
            return None;
        }
        w.stats.states = w.visited.len() as u64;
        let under = w.by64.entry(c64).or_default();
        under.push(c128);
        if under.len() > 1 {
            w.stats.fp_collisions += 1;
        }
        w.stats.fp64_distinct = w.by64.len() as u64;
        // Enumerate co-pending pairs the (possibly mutated) relation
        // claims independent, dedup by (state, shape pair), and queue them
        // for checking after this expansion releases the simulation.
        let classes: Vec<AuditClass> = enabled
            .iter()
            .map(|k| {
                audit_class(
                    sim,
                    *k,
                    queue.get(*k).expect("key just enumerated"),
                    w.mutation,
                )
            })
            .collect();
        let shapes: Vec<u64> = enabled
            .iter()
            .map(|k| queue.get(*k).expect("key just enumerated").shape_hash())
            .collect();
        for i in 0..enabled.len() {
            for j in (i + 1)..enabled.len() {
                if !audit_independent(w.mutation, classes[i], classes[j]) {
                    continue;
                }
                w.stats.pairs_claimed += 1;
                let key = if shapes[i] <= shapes[j] {
                    (c128, shapes[i], shapes[j])
                } else {
                    (c128, shapes[j], shapes[i])
                };
                if !w.checked.insert(key) {
                    continue;
                }
                let queued = w.pending_jobs.len() as u64;
                if w.stats.pairs_checked + w.stats.pairs_skipped + queued >= w.budget.max_pairs {
                    w.stats.pairs_skipped += 1;
                    continue;
                }
                w.pending_jobs.push(PairJob {
                    prefix: self.prefix.clone(),
                    a: enabled[i],
                    b: enabled[j],
                });
            }
        }
        // Children go one level deeper; the depth budget truncates here.
        if depth >= w.budget.max_depth {
            w.stats.truncated += 1;
            return None;
        }
        for key in enabled {
            let child = w.arena.len() as u32;
            w.arena.push(Node {
                parent: self.id,
                key,
            });
            self.children.push(child);
        }
        None
    }
}

/// Replays `schedule` on a fresh simulation; `Ok` carries the
/// fingerprint of the final state, `Err` the first vanished key.
fn replay_order(
    scenario: &Scenario,
    schedule: &[EventKey],
) -> Result<(u64, u128), (usize, EventKey)> {
    let mut sim = scenario.build(None);
    let mut replay = ReplayScheduler::new(schedule);
    let _ = sim.run_with(&mut replay);
    if let Some(miss) = replay.missing() {
        return Err(miss);
    }
    debug_assert_eq!(replay.replayed(), schedule.len());
    Ok(sim.fingerprint())
}

/// Re-executes `schedule`, one human-readable line per step.
fn trace_schedule(scenario: &Scenario, schedule: &[EventKey]) -> Vec<String> {
    #[derive(Debug)]
    struct Tracer<'a> {
        schedule: &'a [EventKey],
        i: usize,
        log: Vec<String>,
    }
    impl Scheduler for Tracer<'_> {
        fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
            let key = *self.schedule.get(self.i)?;
            let entry = sim.engine().queue().get(key);
            let desc = entry.map_or_else(|| "<missing event>".to_string(), describe_event);
            self.log.push(format!(
                "{:>3}. [t={}us] {desc}",
                self.i + 1,
                key.at.as_micros()
            ));
            entry?;
            self.i += 1;
            Some(key)
        }
    }
    let mut tracer = Tracer {
        schedule,
        i: 0,
        log: Vec::new(),
    };
    let mut sim = scenario.build(None);
    let _ = sim.run_with(&mut tracer);
    tracer.log
}

/// Describes the event at `key` after replaying `prefix` (the pair's
/// events are pending, not yet in any schedule line).
fn describe_at(scenario: &Scenario, prefix: &[EventKey], key: EventKey) -> String {
    #[derive(Debug)]
    struct Probe<'a> {
        prefix: &'a [EventKey],
        i: usize,
        target: EventKey,
        found: Option<String>,
    }
    impl Scheduler for Probe<'_> {
        fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
            if self.i == self.prefix.len() {
                self.found = sim.engine().queue().get(self.target).map(describe_event);
                return None;
            }
            let key = self.prefix[self.i];
            self.i += 1;
            Some(key)
        }
    }
    let mut probe = Probe {
        prefix,
        i: 0,
        target: key,
        found: None,
    };
    let mut sim = scenario.build(None);
    let _ = sim.run_with(&mut probe);
    probe
        .found
        .unwrap_or_else(|| format!("<key t={}us seq={}>", key.at.as_micros(), key.seq))
}

/// Replays one claimed-independent pair in both orders; `Some` is a
/// refutation with a replayable trace.
fn check_pair(scenario: &Scenario, job: &PairJob) -> Option<PairMismatch> {
    let ab: Vec<EventKey> = job.prefix.iter().copied().chain([job.a, job.b]).collect();
    let ba: Vec<EventKey> = job.prefix.iter().copied().chain([job.b, job.a]).collect();
    let (kind, detail) = match (replay_order(scenario, &ab), replay_order(scenario, &ba)) {
        (Ok(x), Ok(y)) if x == y => return None,
        (Ok(x), Ok(y)) => (
            "state-divergence",
            format!(
                "fingerprints differ: a-then-b {:016x}/{:032x}, b-then-a {:016x}/{:032x}",
                x.0, x.1, y.0, y.1
            ),
        ),
        (Err((step, key)), _) | (_, Err((step, key))) => (
            "disables",
            format!(
                "scheduled key t={}us seq={} vanished before step {} — the claimed-independent partner disabled it",
                key.at.as_micros(),
                key.seq,
                step + 1
            ),
        ),
    };
    let pair = (
        describe_at(scenario, &job.prefix, job.a),
        describe_at(scenario, &job.prefix, job.b),
    );
    Some(PairMismatch {
        kind: kind.to_string(),
        detail,
        pair,
        schedule: trace_schedule(scenario, &ab),
    })
}

/// Runs the commutativity oracle over `scenario` under the real relation
/// (`mutation: None`) or a seeded over-coarsening. `stop_at_first` ends
/// the walk at the first refutation (the mutation hunt); otherwise every
/// mismatch within budget is collected.
pub fn audit_scenario(
    scenario: &Scenario,
    mutation: Option<RelationMutation>,
    budget: AuditBudget,
    stop_at_first: bool,
) -> AuditOutcome {
    let mut walk = Walk {
        budget,
        mutation,
        arena: vec![Node {
            parent: u32::MAX,
            key: EventKey {
                at: arbitree_sim::SimTime::ZERO,
                seq: 0,
            },
        }],
        visited: HashSet::new(),
        by64: HashMap::new(),
        checked: HashSet::new(),
        pending_jobs: Vec::new(),
        stats: AuditStats::default(),
        hit_state_budget: false,
    };
    let mut mismatches = Vec::new();
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::from([0]);
    let mut drained = false;
    let mut hit_schedule_budget = false;
    loop {
        let Some(id) = queue.pop_front() else {
            drained = true;
            break;
        };
        if walk.stats.schedules >= budget.max_schedules {
            hit_schedule_budget = true;
            break;
        }
        let prefix = walk.prefix_of(id);
        let mut sim = scenario.build(None);
        let mut expand = ExpandScheduler {
            walk: &mut walk,
            id,
            prefix,
            i: 0,
            children: Vec::new(),
        };
        let _ = sim.run_with(&mut expand);
        let children = std::mem::take(&mut expand.children);
        drop(sim);
        // Deviation-ordered search: the first child continues the seeded
        // `(time, seq)` order and goes to the FRONT (the walk dives that
        // spine next); siblings — deviations from seeded order — queue at
        // the back. Net effect: all k-deviation schedules are explored
        // before any (k+1)-deviation one, so a refutation is found at the
        // fewest reorderings of a realistic schedule that exposes it —
        // plain FIFO drowns in breadth before reaching the depth where
        // e.g. a read-repair co-pends with a batched gather, and plain
        // DFS churns the tail of its deepest spine forever.
        let mut children = children.into_iter();
        if let Some(spine) = children.next() {
            queue.push_front(spine);
        }
        queue.extend(children);
        walk.stats.schedules += 1;
        let jobs = std::mem::take(&mut walk.pending_jobs);
        let mut stop = false;
        for job in jobs {
            walk.stats.pairs_checked += 1;
            if let Some(mismatch) = check_pair(scenario, &job) {
                mismatches.push(mismatch);
                if stop_at_first {
                    stop = true;
                    break;
                }
            }
        }
        if stop || walk.hit_state_budget {
            break;
        }
    }
    // Depth truncation is reported but — matching the explorer's
    // convention — does not spoil completeness: the audit is exhaustive
    // *at this depth*.
    let complete =
        drained && !hit_schedule_budget && !walk.hit_state_budget && walk.stats.pairs_skipped == 0;
    AuditOutcome {
        stats: walk.stats,
        mismatches,
        complete,
    }
}

/// Result of hunting one seeded relation mutation.
#[derive(Debug, Clone)]
pub struct RelationKill {
    /// The seeded over-coarsening.
    pub mutation: RelationMutation,
    /// The scenario hunted in.
    pub scenario: &'static str,
    /// `true` when the oracle refuted the mutated relation.
    pub killed: bool,
    /// Pairs replayed before the refutation (or budget).
    pub pairs_checked: u64,
    /// Walk schedules executed.
    pub schedules: u64,
    /// The refutation, when killed.
    pub mismatch: Option<PairMismatch>,
}

/// Hunts one seeded relation mutation with the oracle.
pub fn relation_kill_one(mutation: RelationMutation, max_depth: usize) -> RelationKill {
    let scenario = mutation.scenario();
    let depth = scenario.smoke_depth.min(max_depth);
    let outcome = audit_scenario(&scenario, Some(mutation), AuditBudget::kill(depth), true);
    RelationKill {
        mutation,
        scenario: scenario.name,
        killed: !outcome.mismatches.is_empty(),
        pairs_checked: outcome.stats.pairs_checked,
        schedules: outcome.stats.schedules,
        mismatch: outcome.mismatches.into_iter().next(),
    }
}

/// Hunts every seeded relation mutation.
pub fn relation_kill_all(max_depth: usize) -> Vec<RelationKill> {
    RelationMutation::ALL
        .iter()
        .map(|&m| relation_kill_one(m, max_depth))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_mutations_have_unique_names_and_scenarios_build() {
        let mut names: Vec<&str> = RelationMutation::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RelationMutation::ALL.len());
        for m in RelationMutation::ALL {
            let _ = m.scenario().build(None);
        }
    }

    #[test]
    fn mutated_relation_is_strictly_coarser() {
        // Every mutation must only ADD independence claims, never remove
        // any — spot-check the arms each mutation touches.
        use AuditClass::Base;
        // object-tag-unguarded: None vs Some on one site flips.
        let none = Base(Class::Site(0, None));
        let some = Base(Class::Site(0, Some(1)));
        assert!(!audit_independent(None, none, some));
        assert!(audit_independent(
            Some(RelationMutation::ObjectTagUnguarded),
            none,
            some
        ));
        // Same Some tags stay dependent even under the mutation.
        assert!(!audit_independent(
            Some(RelationMutation::ObjectTagUnguarded),
            Base(Class::Site(0, Some(1))),
            Base(Class::Site(0, Some(1)))
        ));
        // coordinator-per-client: cross-client flips, same-client stays.
        assert!(audit_independent(
            Some(RelationMutation::CoordinatorPerClient),
            AuditClass::PerClientCoordinator(0),
            AuditClass::PerClientCoordinator(1)
        ));
        assert!(!audit_independent(
            Some(RelationMutation::CoordinatorPerClient),
            AuditClass::PerClientCoordinator(0),
            AuditClass::PerClientCoordinator(0)
        ));
        // A per-client coordinator event still conflicts with globals.
        assert!(!audit_independent(
            Some(RelationMutation::CoordinatorPerClient),
            AuditClass::PerClientCoordinator(0),
            Base(Class::Global)
        ));
    }
}
