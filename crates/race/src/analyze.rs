//! The post-run analyzer: one pass over a [`SessionLog`] computing
//! per-thread vector clocks (happens-before via fork/join and channel
//! send/recv edges — deliberately *not* lock edges), Eraser-style candidate
//! locksets per shadow cell, a per-thread held-lock map (misuse detection),
//! and a dynamic lock-order graph with cycle detection.
//!
//! False-positive policy: a cell whose candidate lockset empties is only
//! reported when a *concrete witness pair* exists — two accesses from
//! different threads, at least one a write, with disjoint locksets and no
//! happens-before order between them. Cells that empty their candidate but
//! stay fully ordered (fork/join or channel pipelines) are counted in
//! [`RaceReport::hb_suppressed`] instead of reported.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{CellId, EventKind, LockId, RaceEvent, SessionLog, ThreadId};
use crate::report::{Finding, FindingKind, RaceReport};

/// Maximum rendered lines per finding trace.
const TRACE_CAP: usize = 32;
/// Depth bound for lock-order cycle search (cycles in practice are 2–3).
const CYCLE_DEPTH_CAP: usize = 16;

#[derive(Debug, Clone, Default)]
struct VectorClock(Vec<u32>);

impl VectorClock {
    fn get(&self, i: usize) -> u32 {
        self.0.get(i).copied().unwrap_or(0)
    }

    fn tick(&mut self, i: usize) {
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
    }

    fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }
}

#[derive(Debug, Clone)]
struct Access {
    seq: usize,
    dense: usize,
    thread: ThreadId,
    epoch: u32,
    lockset: BTreeSet<LockId>,
    write: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Virgin,
    Exclusive(usize),
    Shared,
    SharedModified,
}

#[derive(Debug)]
struct CellState {
    phase: Phase,
    candidate: BTreeSet<LockId>,
    last_read: BTreeMap<usize, Access>,
    last_write: BTreeMap<usize, Access>,
    reported: bool,
    suppressed: bool,
}

#[derive(Debug, Clone, Copy)]
struct EdgeWitness {
    held_seq: usize,
    acq_seq: usize,
}

/// Analyze one session log and report races, lock misuse, and lock-order
/// cycles.
pub fn analyze(log: &SessionLog) -> RaceReport {
    let events = &log.events;
    let mut dense: BTreeMap<ThreadId, usize> = BTreeMap::new();
    let mut vcs: Vec<VectorClock> = Vec::new();
    let mut pending_fork: BTreeMap<ThreadId, VectorClock> = BTreeMap::new();
    let mut msgs: BTreeMap<u64, VectorClock> = BTreeMap::new();
    // Per dense thread: held locks -> sequence number of the acquire.
    let mut held: Vec<BTreeMap<LockId, usize>> = Vec::new();
    let mut edges: BTreeMap<(LockId, LockId), EdgeWitness> = BTreeMap::new();
    let mut cells: BTreeMap<CellId, CellState> = BTreeMap::new();
    let mut locks_seen: BTreeSet<LockId> = BTreeSet::new();
    let mut misuse_reported: BTreeSet<LockId> = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();

    for (seq, ev) in events.iter().enumerate() {
        let d = match dense.get(&ev.thread) {
            Some(&d) => d,
            None => {
                let d = vcs.len();
                dense.insert(ev.thread, d);
                // A forked thread inherits everything the parent did before
                // the fork; a root thread starts with an empty clock.
                vcs.push(pending_fork.remove(&ev.thread).unwrap_or_default());
                held.push(BTreeMap::new());
                d
            }
        };
        vcs[d].tick(d);

        match ev.kind {
            EventKind::Fork { child } => {
                pending_fork.insert(child, vcs[d].clone());
            }
            EventKind::Join { child } => {
                if let Some(&cd) = dense.get(&child) {
                    let snapshot = vcs[cd].clone();
                    vcs[d].join(&snapshot);
                }
                // A join of a thread that never recorded is a no-op: there
                // is nothing to order.
            }
            EventKind::Send { msg, .. } => {
                msgs.insert(msg, vcs[d].clone());
            }
            EventKind::Recv { msg, .. } => {
                if let Some(vc) = msgs.remove(&msg) {
                    vcs[d].join(&vc);
                }
            }
            EventKind::Acquire { lock, .. } => {
                locks_seen.insert(lock);
                if held[d].contains_key(&lock) {
                    if misuse_reported.insert(lock) {
                        findings.push(Finding {
                            kind: FindingKind::LockMisuse { lock },
                            message: format!(
                                "t{} re-acquired L{} while already holding it",
                                ev.thread.0, lock.0
                            ),
                            trace: vec![
                                trace_line(events, held[d][&lock]),
                                trace_line(events, seq),
                            ],
                        });
                    }
                } else {
                    for (&h, &held_seq) in held[d].iter() {
                        edges.entry((h, lock)).or_insert(EdgeWitness {
                            held_seq,
                            acq_seq: seq,
                        });
                    }
                    held[d].insert(lock, seq);
                }
            }
            EventKind::Release { lock } => {
                locks_seen.insert(lock);
                if held[d].remove(&lock).is_none() && misuse_reported.insert(lock) {
                    findings.push(Finding {
                        kind: FindingKind::LockMisuse { lock },
                        message: format!(
                            "t{} released L{} without holding it",
                            ev.thread.0, lock.0
                        ),
                        trace: vec![trace_line(events, seq)],
                    });
                }
            }
            EventKind::Read { cell } | EventKind::Write { cell } => {
                let write = matches!(ev.kind, EventKind::Write { .. });
                let access = Access {
                    seq,
                    dense: d,
                    thread: ev.thread,
                    epoch: vcs[d].get(d),
                    lockset: held[d].keys().copied().collect(),
                    write,
                };
                let state = cells.entry(cell).or_insert_with(|| CellState {
                    phase: Phase::Virgin,
                    candidate: BTreeSet::new(),
                    last_read: BTreeMap::new(),
                    last_write: BTreeMap::new(),
                    reported: false,
                    suppressed: false,
                });
                match state.phase {
                    Phase::Virgin => {
                        state.phase = Phase::Exclusive(d);
                        state.candidate = access.lockset.clone();
                    }
                    Phase::Exclusive(owner) if owner == d => {
                        state.candidate = state
                            .candidate
                            .intersection(&access.lockset)
                            .copied()
                            .collect();
                    }
                    Phase::Exclusive(_) | Phase::Shared => {
                        state.candidate = state
                            .candidate
                            .intersection(&access.lockset)
                            .copied()
                            .collect();
                        let any_write = write || state.last_write.values().next().is_some();
                        state.phase = if any_write {
                            Phase::SharedModified
                        } else {
                            Phase::Shared
                        };
                    }
                    Phase::SharedModified => {
                        state.candidate = state
                            .candidate
                            .intersection(&access.lockset)
                            .copied()
                            .collect();
                    }
                }
                if state.phase == Phase::SharedModified
                    && state.candidate.is_empty()
                    && !state.reported
                {
                    if let Some(prior) = find_witness(state, &access, &vcs) {
                        findings.push(race_finding(events, cell, &prior, &access));
                        state.reported = true;
                        state.suppressed = false;
                    } else {
                        state.suppressed = true;
                    }
                }
                let slot = if write {
                    &mut state.last_write
                } else {
                    &mut state.last_read
                };
                slot.insert(d, access);
            }
        }
    }

    findings.extend(cycle_findings(events, &edges));

    let hb_suppressed = cells
        .values()
        .filter(|c| c.suppressed && !c.reported)
        .count();
    RaceReport {
        findings,
        events: events.len(),
        dropped: log.dropped,
        threads: dense.len(),
        locks: locks_seen.len(),
        cells: cells.len(),
        hb_suppressed,
    }
}

/// Find a prior access that forms a concrete race with `access`: different
/// thread, at least one of the pair a write, disjoint locksets, and no
/// happens-before order. Prefers write/write witnesses.
fn find_witness(state: &CellState, access: &Access, vcs: &[VectorClock]) -> Option<Access> {
    let unordered = |a: &Access| {
        a.dense != access.dense
            && a.epoch > vcs[access.dense].get(a.dense)
            && a.lockset.intersection(&access.lockset).next().is_none()
    };
    if let Some(a) = state.last_write.values().find(|a| unordered(a)) {
        return Some(a.clone());
    }
    if access.write {
        if let Some(a) = state.last_read.values().find(|a| unordered(a)) {
            return Some(a.clone());
        }
    }
    None
}

fn race_finding(events: &[RaceEvent], cell: CellId, a: &Access, b: &Access) -> Finding {
    let pair = match (a.write, b.write) {
        (true, true) => "write/write",
        (false, true) => "read/write",
        (true, false) => "write/read",
        (false, false) => "read/read",
    };
    Finding {
        kind: FindingKind::DataRace { cell },
        message: format!(
            "{} race on C{}: t{} and t{} share no lock and no happens-before order",
            pair, cell.0, a.thread.0, b.thread.0
        ),
        trace: race_trace(events, a, b),
    }
}

/// Replayable excerpt: every event between the two racing accesses from
/// either involved thread, capped to [`TRACE_CAP`] lines.
fn race_trace(events: &[RaceEvent], a: &Access, b: &Access) -> Vec<String> {
    let mut lines: Vec<String> = (a.seq..=b.seq)
        .filter(|&s| {
            let t = events[s].thread;
            t == a.thread || t == b.thread
        })
        .map(|s| trace_line(events, s))
        .collect();
    if lines.len() > TRACE_CAP {
        let elided = lines.len() - TRACE_CAP;
        let tail = lines.split_off(lines.len() - TRACE_CAP / 2);
        lines.truncate(TRACE_CAP / 2);
        lines.push(format!("... {elided} events elided ..."));
        lines.extend(tail);
    }
    lines
}

fn trace_line(events: &[RaceEvent], seq: usize) -> String {
    format!("[{seq:04}] {}", events[seq])
}

/// Enumerate lock-order cycles: simple cycles in the nesting graph where
/// the starting lock is the cycle's minimum (each cycle found once).
fn cycle_findings(
    events: &[RaceEvent],
    edges: &BTreeMap<(LockId, LockId), EdgeWitness>,
) -> Vec<Finding> {
    let mut adj: BTreeMap<LockId, Vec<LockId>> = BTreeMap::new();
    for &(a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut cycles: BTreeSet<Vec<LockId>> = BTreeSet::new();
    for &start in adj.keys() {
        let mut path = vec![start];
        let mut on_path: BTreeSet<LockId> = [start].into();
        dfs_cycles(start, start, &adj, &mut path, &mut on_path, &mut cycles);
    }
    cycles
        .into_iter()
        .map(|cycle| {
            let chain: Vec<String> = cycle
                .iter()
                .chain(cycle.first())
                .map(|l| format!("L{}", l.0))
                .collect();
            let mut trace = Vec::new();
            for i in 0..cycle.len() {
                let a = cycle[i];
                let b = cycle[(i + 1) % cycle.len()];
                if let Some(w) = edges.get(&(a, b)) {
                    trace.push(trace_line(events, w.held_seq));
                    trace.push(trace_line(events, w.acq_seq));
                }
            }
            Finding {
                kind: FindingKind::LockOrderCycle {
                    cycle: cycle.clone(),
                },
                message: format!(
                    "locks nested in incompatible orders: {}",
                    chain.join(" -> ")
                ),
                trace,
            }
        })
        .collect()
}

fn dfs_cycles(
    start: LockId,
    node: LockId,
    adj: &BTreeMap<LockId, Vec<LockId>>,
    path: &mut Vec<LockId>,
    on_path: &mut BTreeSet<LockId>,
    cycles: &mut BTreeSet<Vec<LockId>>,
) {
    if path.len() > CYCLE_DEPTH_CAP {
        return;
    }
    let Some(nexts) = adj.get(&node) else { return };
    for &next in nexts {
        if next == start {
            cycles.insert(path.clone());
        } else if next > start && !on_path.contains(&next) {
            // Only visit locks greater than the start so each cycle is
            // discovered exactly once, rooted at its minimum lock.
            path.push(next);
            on_path.insert(next);
            dfs_cycles(start, next, adj, path, on_path, cycles);
            on_path.remove(&next);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u32, kind: EventKind) -> RaceEvent {
        RaceEvent {
            thread: ThreadId(t),
            kind,
        }
    }

    fn fork(t: u32, c: u32) -> RaceEvent {
        ev(t, EventKind::Fork { child: ThreadId(c) })
    }

    fn join(t: u32, c: u32) -> RaceEvent {
        ev(t, EventKind::Join { child: ThreadId(c) })
    }

    fn acq(t: u32, l: u64) -> RaceEvent {
        ev(t, EventKind::Acquire { lock: LockId(l) })
    }

    fn rel(t: u32, l: u64) -> RaceEvent {
        ev(t, EventKind::Release { lock: LockId(l) })
    }

    fn write(t: u32, c: u64) -> RaceEvent {
        ev(t, EventKind::Write { cell: CellId(c) })
    }

    fn read(t: u32, c: u64) -> RaceEvent {
        ev(t, EventKind::Read { cell: CellId(c) })
    }

    fn run(events: Vec<RaceEvent>) -> RaceReport {
        analyze(&SessionLog { events, dropped: 0 })
    }

    #[test]
    fn unordered_unlocked_sibling_writes_race() {
        let report = run(vec![
            fork(0, 1),
            fork(0, 2),
            write(1, 10),
            write(2, 10),
            join(0, 1),
            join(0, 2),
        ]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(
            report.findings[0].kind,
            FindingKind::DataRace { cell: CellId(10) }
        );
        assert!(report.findings[0].message.contains("write/write"));
        assert!(!report.findings[0].trace.is_empty());
    }

    #[test]
    fn common_lock_means_no_race() {
        let report = run(vec![
            fork(0, 1),
            fork(0, 2),
            acq(1, 7),
            write(1, 10),
            rel(1, 7),
            acq(2, 7),
            write(2, 10),
            rel(2, 7),
            join(0, 1),
            join(0, 2),
        ]);
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.hb_suppressed, 0);
    }

    #[test]
    fn fork_join_order_suppresses_lockless_sharing() {
        // Parent writes, then the child (forked after) writes: ordered by
        // the fork edge, so no race despite an empty candidate lockset.
        let report = run(vec![write(0, 10), fork(0, 1), write(1, 10), join(0, 1)]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.hb_suppressed, 1);
    }

    #[test]
    fn join_edge_orders_later_parent_read() {
        let report = run(vec![fork(0, 1), write(1, 10), join(0, 1), read(0, 10)]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn missing_join_edge_is_a_race() {
        // Same shape but the parent reads before joining.
        let report = run(vec![fork(0, 1), write(1, 10), read(0, 10), join(0, 1)]);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("race on C10"));
    }

    #[test]
    fn channel_edge_orders_cross_thread_handoff() {
        let report = run(vec![
            fork(0, 1),
            write(1, 10),
            ev(
                1,
                EventKind::Send {
                    chan: crate::event::ChanId(1),
                    msg: 5,
                },
            ),
            ev(
                0,
                EventKind::Recv {
                    chan: crate::event::ChanId(1),
                    msg: 5,
                },
            ),
            read(0, 10),
            join(0, 1),
        ]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn read_only_sharing_never_reports() {
        let report = run(vec![
            fork(0, 1),
            fork(0, 2),
            read(1, 10),
            read(2, 10),
            join(0, 1),
            join(0, 2),
        ]);
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.hb_suppressed, 0);
    }

    #[test]
    fn inverted_nesting_is_a_lock_order_cycle() {
        let report = run(vec![
            fork(0, 1),
            acq(0, 1),
            acq(0, 2),
            rel(0, 2),
            rel(0, 1),
            acq(1, 2),
            acq(1, 1),
            rel(1, 1),
            rel(1, 2),
            join(0, 1),
        ]);
        let cycles: Vec<_> = report
            .findings
            .iter()
            .filter(|f| matches!(f.kind, FindingKind::LockOrderCycle { .. }))
            .collect();
        assert_eq!(cycles.len(), 1);
        assert_eq!(
            cycles[0].kind,
            FindingKind::LockOrderCycle {
                cycle: vec![LockId(1), LockId(2)]
            }
        );
        assert_eq!(cycles[0].trace.len(), 4);
    }

    #[test]
    fn consistent_nesting_is_clean() {
        let report = run(vec![
            fork(0, 1),
            acq(0, 1),
            acq(0, 2),
            rel(0, 2),
            rel(0, 1),
            acq(1, 1),
            acq(1, 2),
            rel(1, 2),
            rel(1, 1),
            join(0, 1),
        ]);
        assert!(report.clean(), "{:?}", report.findings);
    }

    #[test]
    fn double_release_is_misuse() {
        let report = run(vec![acq(0, 3), rel(0, 3), rel(0, 3)]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(
            report.findings[0].kind,
            FindingKind::LockMisuse { lock: LockId(3) }
        );
        assert!(report.findings[0].message.contains("without holding"));
    }

    #[test]
    fn reacquire_while_held_is_misuse() {
        let report = run(vec![acq(0, 3), acq(0, 3)]);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("re-acquired"));
    }

    #[test]
    fn races_are_deduplicated_per_cell() {
        let report = run(vec![
            fork(0, 1),
            fork(0, 2),
            write(1, 10),
            write(2, 10),
            write(1, 10),
            write(2, 10),
            join(0, 1),
            join(0, 2),
        ]);
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn report_counts_population() {
        let report = run(vec![
            fork(0, 1),
            acq(1, 7),
            write(1, 10),
            rel(1, 7),
            join(0, 1),
        ]);
        assert_eq!(report.events, 5);
        assert_eq!(report.threads, 2);
        assert_eq!(report.locks, 1);
        assert_eq!(report.cells, 1);
        assert!(report.clean());
    }
}
