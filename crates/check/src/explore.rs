//! The schedule explorer: DFS over event orderings with sleep-set DPOR
//! and state-fingerprint pruning.
//!
//! ## How a schedule is explored
//!
//! The simulator re-executes from scratch for every schedule (stateless
//! model checking): the explorer keeps a stack of *frames*, one per
//! executed step, each recording the events that were pending at that
//! point and which one was chosen. A `RunScheduler` implementing the
//! simulator's [`Scheduler`] seam replays the stack prefix, then extends
//! it by one new frontier; backtracking advances the deepest frame to its
//! next unexplored choice.
//!
//! ## Pruning
//!
//! * **Visited states** — at every frontier the simulation's
//!   [`fingerprint`](Simulation::fingerprint) (combined with the pending
//!   sleep set) is looked up in a visited table; a hit ends the run.
//! * **Sleep sets** — after a choice `e` is fully explored at a node, `e`
//!   enters the node's sleep set; children inherit the sleep entries that
//!   are *independent* of the chosen event. Two events are independent
//!   when they commute: deliveries/faults touching **different** sites,
//!   or a site-bound delivery against coordinator-side work. Coordinator
//!   events are never independent of each other (they share the lock
//!   tables and the run RNG), and global events (partitions, overrides,
//!   reconfigurations) are never independent of anything.
//!
//! Running with `dpor = false` degrades the relation to "nothing is
//! independent", which turns the same code path into a plain DFS — the
//! honest baseline for measuring the partial-order reduction factor.
//!
//! ## Invariants
//!
//! Per configuration: the protocol must be a structural bicoterie
//! ([`ReplicaControl::to_bicoterie`]). Per schedule: the online one-copy
//! checker must stay clean, and — when the run quiesces with an empty
//! event queue — no transaction may be left incomplete (a wedged
//! transaction means leaked locks or lost completion).
//!
//! [`ReplicaControl::to_bicoterie`]: arbitree_quorum::ReplicaControl::to_bicoterie

use crate::mutations::Mutation;
use crate::scenario::Scenario;
use arbitree_sim::{Endpoint, Event, EventKey, Payload, Scheduler, SimReport, Simulation};
use std::collections::HashMap;
use std::fmt;

/// Exploration budgets and mode.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum schedule length; longer runs are truncated (sound: every
    /// prefix was still checked).
    pub max_depth: usize,
    /// Maximum distinct `(state, sleep-set)` nodes.
    pub max_states: usize,
    /// Maximum number of schedules (re-executions).
    pub max_schedules: u64,
    /// `true` = sleep-set DPOR; `false` = naive DFS (measurement
    /// baseline).
    pub dpor: bool,
    /// `true` = same-site deliveries for different objects are
    /// independent (the sharded-keyspace refinement); `false` = the
    /// coarser site-only relation (ablation baseline for measuring what
    /// the refinement buys on cross-shard workloads).
    pub object_independence: bool,
    /// `true` = the visited table keys on the 128-bit fingerprint lane
    /// instead of the historical 64-bit one. Sleep-set subset matching
    /// prunes on fingerprint equality, so a 64-bit collision between two
    /// *distinct* states silently merges their subtrees; running the same
    /// exploration in both widths and comparing state/schedule counts is
    /// the collision audit (`arbitree-audit`).
    pub wide: bool,
}

impl Budget {
    /// CI smoke budget: completes in seconds on the bundled scenarios.
    pub fn smoke() -> Budget {
        Budget {
            max_depth: 44,
            max_states: 400_000,
            max_schedules: 400_000,
            dpor: true,
            object_independence: true,
            wide: false,
        }
    }

    /// Full budget for the EXPERIMENTS.md tables.
    pub fn full() -> Budget {
        Budget {
            max_depth: 60,
            max_states: 4_000_000,
            max_schedules: 4_000_000,
            dpor: true,
            object_independence: true,
            wide: false,
        }
    }

    /// The same budget with DPOR disabled.
    pub fn naive(self) -> Budget {
        Budget {
            dpor: false,
            ..self
        }
    }

    /// The same budget with the object-level independence refinement
    /// disabled (same-site deliveries always conflict) — the ablation
    /// baseline for the sharded-keyspace scenarios.
    pub fn coarse(self) -> Budget {
        Budget {
            object_independence: false,
            ..self
        }
    }

    /// The same budget with state and schedule counts capped at `n` —
    /// used for the bounded tier, where exhaustion is out of reach and
    /// the point is invariant coverage per schedule.
    pub fn capped(self, n: u64) -> Budget {
        Budget {
            max_states: (n as usize).min(self.max_states),
            max_schedules: n.min(self.max_schedules),
            ..self
        }
    }

    /// The same budget with a different depth bound — the exhaustive tier
    /// uses each scenario's own drainable depth.
    pub fn with_depth(self, depth: usize) -> Budget {
        Budget {
            max_depth: depth,
            ..self
        }
    }

    /// The same budget with the visited table keyed on the 128-bit
    /// fingerprint lane (collision-audit mode).
    pub fn wide(self) -> Budget {
        Budget { wide: true, ..self }
    }
}

/// Counters reported by [`explore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Schedules executed (re-executions of the simulation).
    pub schedules: u64,
    /// Distinct `(state, sleep-set)` nodes visited.
    pub states: u64,
    /// Runs cut at the depth budget.
    pub truncated: u64,
    /// Runs cut because the frontier state was already visited.
    pub pruned_visited: u64,
    /// Frontiers where every enabled event was sleeping.
    pub pruned_sleep: u64,
    /// Deepest schedule seen.
    pub max_depth_seen: usize,
}

/// A violation found by the explorer, with a replayable schedule.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// Which invariant fired: `structural`, `consistency`, or
    /// `stuck-ops`.
    pub kind: String,
    /// Human-readable description of the violation.
    pub detail: String,
    /// The violating schedule, one line per step, in execution order.
    pub schedule: Vec<String>,
}

/// How an exploration ended. A censored (budget-cut) run must never read
/// as "explored": callers that want to claim exhaustiveness check for
/// [`Termination::Drained`] *and* `stats.truncated == 0`, not merely the
/// absence of a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The DFS tree was exhausted within the state/schedule budgets.
    /// Individual runs may still have been cut at the depth bound —
    /// `stats.truncated` counts those — so a drain is a *clean* drain only
    /// when `truncated == 0`.
    Drained,
    /// Stopped at the first invariant violation.
    Violation,
    /// Stopped after [`Budget::max_schedules`] re-executions.
    ScheduleBudget,
    /// Stopped when the visited table reached [`Budget::max_states`].
    StateBudget,
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Termination::Drained => "drained",
            Termination::Violation => "violation",
            Termination::ScheduleBudget => "schedule-budget",
            Termination::StateBudget => "state-budget",
        })
    }
}

/// Result of exploring one (scenario, mutation) pair.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// The first violation found, if any (exploration stops at the
    /// first).
    pub violation: Option<ViolationReport>,
    /// `true` if the state space was exhausted within the state/schedule
    /// budgets (depth truncation is reported separately in `stats`).
    pub complete: bool,
    /// Which condition ended the exploration (refines `complete`: a
    /// budget cut says *which* budget, a violation is its own kind).
    pub termination: Termination,
}

impl ExploreOutcome {
    /// `true` when the exploration drained the whole tree *and* no run was
    /// cut at the depth bound: every schedule of the scenario was executed
    /// to quiescence or pruned soundly.
    pub fn clean_drain(&self) -> bool {
        self.termination == Termination::Drained && self.stats.truncated == 0
    }
}

/// Event class for the independence relation. `pub(crate)` so the audit
/// module can classify the same events the explorer does — and deliberately
/// over-coarsen the result to seed unsound relations for the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Delivery handled entirely by one replica site, tagged with the
    /// object it touches (`None` for a batch envelope, which may span
    /// several). Same-site deliveries for *different* objects operate on
    /// disjoint per-object storage and commute — the refinement that makes
    /// transactions on different shards independent below the coordinator.
    Site(u32, Option<u32>),
    /// Crash or recovery of one site.
    Fault(u32),
    /// Anything the coordinator layer handles (client deliveries, ticks,
    /// live timeouts).
    Coordinator,
    /// Partitions, network overrides, reconfigurations.
    Global,
    /// A permanent no-op ([`Simulation::event_is_noop`]): a stale timeout
    /// whose operation completed or whose phase counter moved on — both
    /// irreversible, so the event commutes with *everything*, forever.
    /// Without this class the tail of every schedule is a factorial swamp
    /// of dead-timeout permutations.
    NoOp,
}

/// Classifies a delivery bound for site `site` by its payload.
///
/// Exhaustive **by name**: every [`Payload`] variant appears literally in
/// this match, and lint rule D009 cross-references the list against the
/// `Payload` enum declaration in `crates/sim/src/message.rs` — a new
/// payload variant cannot silently fall into a default class, which is how
/// an independence relation quietly becomes unsound.
pub(crate) fn payload_class(site: u32, payload: &Payload) -> Class {
    match payload {
        // Anti-entropy *responses* terminate at the rejoin manager: they
        // mutate rejoin state and can flip a site to `Serving`, which
        // coordinator-side quorum picks observe — global.
        Payload::RangeHashResp { .. } | Payload::RangeFill { .. } => Class::Global,
        // Single-object quorum traffic, tagged with its object: same-site
        // deliveries for different objects touch disjoint per-object
        // storage and commute.
        Payload::ReadReq { obj, .. }
        | Payload::ReadResp { obj, .. }
        | Payload::Prepare { obj, .. }
        | Payload::PrepareAck { obj, .. }
        | Payload::Commit { obj, .. }
        | Payload::Abort { obj, .. }
        | Payload::CommitAck { obj, .. }
        | Payload::Repair { obj, .. } => Class::Site(site, Some(obj.0)),
        // An envelope may span several objects: the conservative `None`
        // tag keeps it dependent on every same-site delivery (the
        // invariant documented on `Payload::object`).
        Payload::Batch(_) => Class::Site(site, None),
        // The request side of anti-entropy is an ordinary site-local
        // delivery — the source answers from its own storage — but it
        // reads the whole committed range, so no single-object tag.
        Payload::RangeHashReq { .. } => Class::Site(site, None),
    }
}

pub(crate) fn classify(sim: &Simulation, key: EventKey, event: &Event) -> Class {
    if sim.event_is_noop(key) {
        return Class::NoOp;
    }
    match event {
        Event::Deliver(m) => match m.to {
            Endpoint::Site(s) => payload_class(s.as_u32(), &m.payload),
            Endpoint::Client(_) => Class::Coordinator,
        },
        Event::Crash(s) | Event::AmnesiaCrash(s) => Class::Fault(s.as_u32()),
        // Once any amnesia crash is scheduled (a run property fixed at
        // schedule time, stable across re-executions), a recovery may start
        // a rejoin: it draws the run RNG for its sources and changes
        // coordinator-visible serving state — global. Without amnesia it
        // stays the site-local fault it always was.
        Event::Recover(s) => {
            if sim.engine().amnesia_scheduled() {
                Class::Global
            } else {
                Class::Fault(s.as_u32())
            }
        }
        // A live rejoin retry resends probes or restarts the rejoin
        // (fresh sources from the run RNG) — global. Stale ones
        // were already classified `NoOp` above.
        Event::SyncRetry { .. } => Class::Global,
        Event::ClientTick(_) | Event::OpTimeout { .. } => Class::Coordinator,
        Event::SetPartition(_) | Event::NetOverride(_) | Event::Reconfigure => Class::Global,
    }
}

/// Whether two events commute (executing them in either order reaches the
/// same logical state and neither disables the other). Site-local work
/// commutes across distinct sites and with coordinator-side work (a
/// site's handler touches only that site's storage plus the message
/// fabric; under a derandomized scenario it draws no RNG). Two deliveries
/// to the *same* site commute when they touch different objects — per-site
/// storage and staging are keyed by object, so the handlers read and write
/// disjoint state (a batch envelope, tagged `None`, may span objects and
/// stays dependent). A site's crash/recovery conflicts with every delivery
/// to that site regardless of object. Coordinator events share the lock
/// tables and the run RNG, so they never commute with each other; global
/// events commute with nothing; permanent no-ops commute with everything.
///
/// Classes are sampled when an event first becomes pending at a frame; a
/// live timeout may *become* a no-op deeper in the tree, which only makes
/// the relation conservative (less pruning, never unsound).
pub(crate) fn independent(a: Class, b: Class) -> bool {
    match (a, b) {
        (Class::NoOp, _) | (_, Class::NoOp) => true,
        (Class::Site(x, ox), Class::Site(y, oy)) => {
            x != y || matches!((ox, oy), (Some(o1), Some(o2)) if o1 != o2)
        }
        (Class::Site(x, _) | Class::Fault(x), Class::Site(y, _) | Class::Fault(y)) => x != y,
        (Class::Site(..) | Class::Fault(_), Class::Coordinator)
        | (Class::Coordinator, Class::Site(..) | Class::Fault(_)) => true,
        _ => false,
    }
}

/// One executed step of the current schedule prefix.
#[derive(Debug)]
struct Frame {
    /// Events pending at this node, in deterministic `(time, seq)` order.
    enabled: Vec<EventKey>,
    /// Classes of `enabled`, parallel.
    classes: Vec<Class>,
    /// `sleeping[i]` — `enabled[i]` is in the sleep set (inherited, or
    /// already fully explored from this node).
    sleeping: Vec<bool>,
    /// Index of the choice currently being explored.
    index: usize,
}

#[derive(Debug)]
struct Core {
    budget: Budget,
    stack: Vec<Frame>,
    /// Godefroid's state matching for sleep sets: per state fingerprint,
    /// the sleep sets (as sorted event-shape hashes) it was explored
    /// under. A revisit may be pruned only if some stored sleep set is a
    /// **subset** of the current one — the earlier exploration then
    /// covered strictly more successors than this visit would. Keyed
    /// `u128`: in narrow mode the historical 64-bit fingerprint is
    /// zero-extended, in [`Budget::wide`] mode the full 128-bit lane is
    /// used (the collision audit compares the two).
    visited: HashMap<u128, Vec<Box<[u64]>>>,
    /// Total stored `(state, sleep-set)` entries, against
    /// [`Budget::max_states`].
    entries: usize,
    stats: ExploreStats,
}

impl Core {
    /// Backtracks to the next unexplored choice. Returns `false` when the
    /// whole tree is exhausted.
    fn advance(&mut self) -> bool {
        while let Some(f) = self.stack.last_mut() {
            f.sleeping[f.index] = true;
            if let Some(i) = f.sleeping.iter().position(|s| !s) {
                f.index = i;
                return true;
            }
            self.stack.pop();
        }
        false
    }

    /// Applies the state-matching rule for state `fp` reached with sleep
    /// set `sleep` (sorted). Returns `true` if the visit is subsumed by an
    /// earlier one; otherwise records it (dropping any stored supersets it
    /// subsumes in turn) and returns `false`.
    fn subsumed_or_record(&mut self, fp: u128, sleep: Box<[u64]>) -> bool {
        let stored = self.visited.entry(fp).or_default();
        if stored.iter().any(|s| is_subset(s, &sleep)) {
            return true;
        }
        let before = stored.len();
        stored.retain(|s| !is_subset(&sleep, s));
        self.entries -= before - stored.len();
        stored.push(sleep);
        self.entries += 1;
        false
    }
}

/// Whether sorted slice `a` is a subset of sorted slice `b`.
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    let mut it = b.iter();
    a.iter().all(|x| it.any(|y| y == x))
}

/// How a single run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunEnd {
    /// The event queue drained: a complete schedule.
    Quiesced,
    /// Cut at the depth budget.
    Truncated,
    /// Cut by visited-state or sleep-set pruning.
    Pruned,
    /// The state budget is exhausted.
    Budget,
}

/// Per-run driver: replays the stack prefix, then extends by one frame.
#[derive(Debug)]
struct RunScheduler<'a> {
    core: &'a mut Core,
    depth: usize,
    end: RunEnd,
}

impl Scheduler for RunScheduler<'_> {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        if self.depth < self.core.stack.len() {
            let f = &self.core.stack[self.depth];
            self.depth += 1;
            return Some(f.enabled[f.index]);
        }
        let queue = sim.engine().queue();
        let enabled: Vec<EventKey> = queue.keys().collect();
        if enabled.is_empty() {
            self.end = RunEnd::Quiesced;
            return None;
        }
        if self.depth >= self.core.budget.max_depth {
            self.end = RunEnd::Truncated;
            self.core.stats.truncated += 1;
            return None;
        }
        // The frontier's inherited sleep set: the parent's sleeping events
        // that are independent of the choice that led here. (With DPOR off
        // nothing is independent, so children always start awake.)
        let sleep: Vec<EventKey> = match self.core.stack.last() {
            Some(p) if self.core.budget.dpor => {
                let chosen = p.classes[p.index];
                (0..p.enabled.len())
                    .filter(|&i| p.sleeping[i] && independent(p.classes[i], chosen))
                    .map(|i| p.enabled[i])
                    .collect()
            }
            _ => Vec::new(),
        };
        // Visited check. Caching on the state alone would be unsound
        // combined with sleep sets — the same state reached with a smaller
        // sleep set still has unexplored successors — so the rule is
        // subset-based state matching (see [`Core::visited`]).
        let mut sleep_shapes: Vec<u64> = sleep
            .iter()
            .filter_map(|k| queue.get(*k).map(shape_hash))
            .collect();
        sleep_shapes.sort_unstable();
        sleep_shapes.dedup();
        if self.core.entries >= self.core.budget.max_states {
            self.end = RunEnd::Budget;
            return None;
        }
        let (fp64, fp128) = sim.fingerprint_wide();
        let fp = if self.core.budget.wide {
            fp128
        } else {
            u128::from(fp64)
        };
        if self
            .core
            .subsumed_or_record(fp, sleep_shapes.into_boxed_slice())
        {
            self.end = RunEnd::Pruned;
            self.core.stats.pruned_visited += 1;
            return None;
        }
        self.core.stats.states = self.core.entries as u64;
        let classes: Vec<Class> = enabled
            .iter()
            .map(|k| {
                let class = classify(sim, *k, queue.get(*k).expect("key just enumerated"));
                match class {
                    // Ablation mode: drop the object tag, so same-site
                    // deliveries always conflict (the pre-sharding
                    // relation).
                    Class::Site(s, Some(_)) if !self.core.budget.object_independence => {
                        Class::Site(s, None)
                    }
                    c => c,
                }
            })
            .collect();
        let sleeping: Vec<bool> = enabled.iter().map(|k| sleep.contains(k)).collect();
        let Some(index) = sleeping.iter().position(|s| !s) else {
            // Every enabled event is sleeping: all interleavings from here
            // are covered by schedules explored elsewhere.
            self.end = RunEnd::Pruned;
            self.core.stats.pruned_sleep += 1;
            return None;
        };
        let key = enabled[index];
        self.core.stack.push(Frame {
            enabled,
            classes,
            sleeping,
            index,
        });
        self.depth += 1;
        self.core.stats.max_depth_seen = self.core.stats.max_depth_seen.max(self.depth);
        Some(key)
    }
}

/// FNV-1a over a byte slice.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes an event's content, ignoring scheduling time and `sent_at` —
/// the same abstraction [`Simulation::fingerprint`] uses for the pending
/// multiset.
pub(crate) fn shape_hash(event: &Event) -> u64 {
    let s = match event {
        Event::Deliver(m) => format!("D|{:?}|{:?}|{:?}", m.from, m.to, m.payload),
        other => format!("E|{other:?}"),
    };
    fnv(s.as_bytes())
}

pub(crate) fn describe_event(event: &Event) -> String {
    match event {
        Event::Deliver(m) => format!("deliver {} -> {}: {:?}", m.from, m.to, m.payload),
        Event::Crash(s) => format!("crash {s}"),
        Event::AmnesiaCrash(s) => format!("amnesia-crash {s}"),
        Event::Recover(s) => format!("recover {s}"),
        Event::SyncRetry {
            site,
            attempt,
            epoch,
        } => {
            format!("sync-retry {site} attempt {attempt} epoch {epoch}")
        }
        Event::ClientTick(c) => format!("tick {c}"),
        Event::OpTimeout {
            client,
            op,
            attempt,
        } => {
            format!("timeout {client} {op} attempt {attempt}")
        }
        Event::SetPartition(p) => format!("set-partition {p:?}"),
        Event::NetOverride(o) => format!("net-override {o:?}"),
        Event::Reconfigure => "reconfigure".to_string(),
    }
}

/// Checks per-schedule invariants; returns `(kind, detail)` on violation.
fn check_run(sim: &Simulation, report: &SimReport, quiesced: bool) -> Option<(String, String)> {
    if !report.consistent {
        let detail = sim
            .checker()
            .violations()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        return Some(("consistency".to_string(), detail));
    }
    if quiesced && report.ops_incomplete > 0 {
        return Some((
            "stuck-ops".to_string(),
            format!(
                "{} transaction(s) wedged with an empty event queue",
                report.ops_incomplete
            ),
        ));
    }
    None
}

/// Re-executes the current stack prefix, recording a human-readable line
/// per step — the replayable trace attached to a violation.
fn trace(scenario: &Scenario, mutation: Option<&Mutation>, stack: &[Frame]) -> Vec<String> {
    #[derive(Debug)]
    struct Tracer<'a> {
        frames: &'a [Frame],
        depth: usize,
        log: Vec<String>,
    }
    impl Scheduler for Tracer<'_> {
        fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
            let f = self.frames.get(self.depth)?;
            let key = f.enabled[f.index];
            let desc = sim
                .engine()
                .queue()
                .get(key)
                .map_or_else(|| "<missing event>".to_string(), describe_event);
            self.log.push(format!(
                "{:>3}. [t={}us] {desc}",
                self.depth + 1,
                key.at.as_micros()
            ));
            self.depth += 1;
            Some(key)
        }
    }
    let mut tracer = Tracer {
        frames: stack,
        depth: 0,
        log: Vec::new(),
    };
    let mut sim = scenario.build(mutation);
    let _ = sim.run_with(&mut tracer);
    tracer.log
}

/// Explores every schedule of `scenario` (optionally mutated) within
/// `budget`, stopping at the first invariant violation.
pub fn explore(scenario: &Scenario, mutation: Option<&Mutation>, budget: Budget) -> ExploreOutcome {
    // Structural invariant, once per configuration: the quorum systems
    // must cross-intersect (Definition 2.2's bicoterie property).
    if let Err(e) = Mutation::protocol(mutation, scenario.spec).to_bicoterie() {
        return ExploreOutcome {
            stats: ExploreStats::default(),
            violation: Some(ViolationReport {
                kind: "structural".to_string(),
                detail: format!("quorum intersection property violated: {e}"),
                schedule: Vec::new(),
            }),
            complete: true,
            termination: Termination::Violation,
        };
    }
    let mut core = Core {
        budget,
        stack: Vec::new(),
        visited: HashMap::new(),
        entries: 0,
        stats: ExploreStats::default(),
    };
    let mut violation = None;
    let mut hit_budget = false;
    let mut termination = Termination::Drained;
    loop {
        let mut sim = scenario.build(mutation);
        // Starts as Truncated: if the run ends without `select` saying why
        // (an event past the configured end time stops `run_with` from the
        // inside), it must not be mistaken for quiescence.
        let mut rs = RunScheduler {
            core: &mut core,
            depth: 0,
            end: RunEnd::Truncated,
        };
        let report = sim.run_with(&mut rs);
        let end = rs.end;
        core.stats.schedules += 1;
        if let Some((kind, detail)) = check_run(&sim, &report, end == RunEnd::Quiesced) {
            violation = Some(ViolationReport {
                kind,
                detail,
                schedule: trace(scenario, mutation, &core.stack),
            });
            termination = Termination::Violation;
            break;
        }
        if end == RunEnd::Budget {
            hit_budget = true;
            termination = Termination::StateBudget;
            break;
        }
        if core.stats.schedules >= budget.max_schedules {
            hit_budget = true;
            termination = Termination::ScheduleBudget;
            break;
        }
        if !core.advance() {
            break;
        }
    }
    ExploreOutcome {
        stats: core.stats,
        violation,
        complete: !hit_budget,
        termination,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independence_is_symmetric_and_site_local() {
        let cases = [
            Class::Site(0, Some(0)),
            Class::Site(0, Some(1)),
            Class::Site(0, None),
            Class::Site(1, Some(0)),
            Class::Fault(0),
            Class::Fault(1),
            Class::Coordinator,
            Class::Global,
            Class::NoOp,
        ];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(independent(a, b), independent(b, a), "{a:?} {b:?}");
            }
        }
        assert!(independent(
            Class::Site(0, Some(0)),
            Class::Site(1, Some(0))
        ));
        assert!(!independent(
            Class::Site(0, Some(0)),
            Class::Site(0, Some(0))
        ));
        assert!(!independent(Class::Site(0, Some(0)), Class::Fault(0)));
        assert!(independent(Class::Fault(0), Class::Site(1, Some(0))));
        assert!(independent(Class::Site(0, Some(0)), Class::Coordinator));
        assert!(!independent(Class::Coordinator, Class::Coordinator));
        assert!(!independent(Class::Global, Class::Site(0, Some(0))));
        assert!(!independent(Class::Global, Class::Global));
        assert!(independent(Class::NoOp, Class::Global));
        assert!(independent(Class::NoOp, Class::Coordinator));
        assert!(independent(Class::NoOp, Class::NoOp));
    }

    #[test]
    fn same_site_independence_keys_on_the_object() {
        // Different objects on one site touch disjoint storage: commute.
        assert!(independent(
            Class::Site(0, Some(0)),
            Class::Site(0, Some(1))
        ));
        // A batch envelope may span objects: dependent with everything on
        // its site, whatever the other event's object tag.
        assert!(!independent(Class::Site(0, None), Class::Site(0, Some(1))));
        assert!(!independent(Class::Site(0, None), Class::Site(0, None)));
        // A crash conflicts with every delivery to its site regardless of
        // object.
        assert!(!independent(Class::Fault(0), Class::Site(0, Some(1))));
        // Across sites the object tag is irrelevant.
        assert!(independent(Class::Site(0, None), Class::Site(1, None)));
    }

    #[test]
    fn payload_class_names_every_variant() {
        use arbitree_sim::{ObjectId, OpId};
        // Tagged single-object traffic.
        let read = Payload::ReadReq {
            op: OpId(1),
            obj: ObjectId(7),
        };
        assert_eq!(payload_class(2, &read), Class::Site(2, Some(7)));
        // Envelopes and range requests are site-local with the
        // conservative `None` tag.
        assert_eq!(
            payload_class(2, &Payload::Batch(vec![read])),
            Class::Site(2, None)
        );
        assert_eq!(
            payload_class(
                2,
                &Payload::RangeHashReq {
                    range: arbitree_sync::Range::ROOT,
                    peer: arbitree_sync::NodeAgg::EMPTY,
                }
            ),
            Class::Site(2, None)
        );
        // Anti-entropy responses are global (they flip serving state).
        assert_eq!(
            payload_class(
                2,
                &Payload::RangeHashResp {
                    range: arbitree_sync::Range::ROOT,
                    verdict: arbitree_sim::RangeVerdict::Match,
                }
            ),
            Class::Global
        );
    }

    #[test]
    fn shape_hash_distinguishes_events() {
        use arbitree_sim::ClientId;
        let a = Event::ClientTick(ClientId(0));
        let b = Event::ClientTick(ClientId(1));
        assert_ne!(shape_hash(&a), shape_hash(&b));
        assert_eq!(shape_hash(&a), shape_hash(&a));
    }
}
