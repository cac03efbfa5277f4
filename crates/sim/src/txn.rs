//! Transaction-level state: the per-transaction coordinator record and its
//! phase machine, the client bookkeeping, live-reconfiguration progress,
//! and the public request/report types.
//!
//! A transaction is one [`TxnState`]: a `Vec` of [`TxnObject`] entries,
//! one per object it touches, plus the acknowledgements and read
//! responses of the phase in progress. Every phase walks the entries in
//! place — locks and the read round in ascending object order (the
//! entries' order), prepare, commit and completion in request order
//! (through a permutation computed once per transaction). The read round
//! covers every entry at once, batched or not.
//!
//! A client runs one transaction at a time, so each client's
//! [`ClientState`] owns one record, reused in place for the client's next
//! transaction with its buffers' capacity intact.
//!
//! These types carry no behaviour of their own — the
//! [`crate::coordinator::Coordinator`] drives them and the
//! [`crate::engine::Engine`] transports their messages.

use crate::history::History;
use crate::locks::LockMode;
use crate::message::{ClientId, ObjectId, OpId};
use crate::metrics::{PhaseTimes, SimMetrics};
use crate::time::{SimDuration, SimTime};
use arbitree_core::{DetSet, Timestamp};
use arbitree_quorum::{QuorumSet, ReplicaControl, SiteId};
use bytes::Bytes;
use std::collections::VecDeque;
use std::fmt;

/// What a transaction is doing right now.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Phase {
    /// Acquiring its locks, in object order.
    LockWait,
    /// Gathering every object's read-quorum responses.
    ReadGather,
    /// Gathering 2PC votes from every written object's write quorum.
    PrepareGather,
    /// Past the commit point, gathering commit acks.
    CommitGather,
}

/// Coordinator state of one transaction.
///
/// The read phase is one round over every entry, with
/// [`crate::SimConfig::batching`] on or off; written objects are read
/// too, for their current version. A read retry re-sends only the
/// entries `pending` still owes.
#[derive(Debug)]
pub(crate) struct TxnState {
    pub(crate) client: ClientId,
    pub(crate) phase: Phase,
    pub(crate) started: SimTime,
    /// When the current phase began: for a gather phase, when its
    /// requests went out.
    pub(crate) phase_since: SimTime,
    /// Time spent in each phase left so far.
    pub(crate) phase_time: PhaseTimes,
    /// Bumped on every phase (re)start; stale timeouts carry the old value.
    pub(crate) phase_counter: u64,
    /// Quorum re-pick attempts consumed.
    pub(crate) attempts: u32,
    /// One entry per object, ascending by object: the lock plan and the
    /// read order.
    pub(crate) objects: Vec<TxnObject>,
    /// Request order: `order[pos]` is the index in `objects` of the entry
    /// at request position `pos`. Derived from the entries' `pos`.
    pub(crate) order: Vec<usize>,
    /// How many of the entries' locks are held (a migration takes none).
    pub(crate) locks_held: usize,
    /// Outstanding `(object, site)` acknowledgements of the current phase:
    /// read responses, prepare votes or commit acks.
    pub(crate) pending: AckSet,
    /// `(object, site, timestamp)` of every response of the read phase,
    /// retries' included, in arrival order (read-repair).
    pub(crate) responses: Vec<(ObjectId, SiteId, Timestamp)>,
    /// Whether this is a reconfiguration-migration transaction.
    pub(crate) is_migration: bool,
}

/// One object of a transaction.
#[derive(Debug)]
pub(crate) struct TxnObject {
    pub(crate) obj: ObjectId,
    /// `Write` for a written object, `Read` for one only read.
    pub(crate) mode: LockMode,
    /// Position in the request: the reads first, then the writes, each in
    /// the order requested.
    pub(crate) pos: usize,
    /// Greatest-timestamp `(ts, value)` read so far.
    pub(crate) best: Option<(Timestamp, Bytes)>,
    /// Read quorum of the object's latest read attempt.
    pub(crate) read_quorum: QuorumSet,
    /// Value to write (empty for a read).
    pub(crate) value: Bytes,
    /// Write timestamp, stamped once the read phase is over.
    pub(crate) write_ts: Timestamp,
    /// Write quorum of the current prepare attempt.
    pub(crate) write_quorum: QuorumSet,
}

impl TxnObject {
    /// A fresh entry for `obj`; `value` is the value to write, `None` for a
    /// read. [`TxnState::number_requests`] sets its request position.
    pub(crate) fn new(obj: ObjectId, value: Option<Bytes>) -> Self {
        TxnObject {
            obj,
            mode: if value.is_some() {
                LockMode::Write
            } else {
                LockMode::Read
            },
            pos: 0,
            best: None,
            read_quorum: QuorumSet::new(),
            value: value.unwrap_or_default(),
            write_ts: Timestamp::ZERO,
            write_quorum: QuorumSet::new(),
        }
    }

    pub(crate) fn is_write(&self) -> bool {
        self.mode == LockMode::Write
    }
}

impl TxnState {
    /// A fresh transaction record in the lock-wait phase, with no entries
    /// yet: push them in the order requested, then number them
    /// ([`TxnState::number_requests`]), sort them by object and index the
    /// request order ([`TxnState::index_request_order`]).
    pub(crate) fn new(client: ClientId, started: SimTime, is_migration: bool) -> Self {
        TxnState {
            client,
            phase: Phase::LockWait,
            started,
            phase_since: started,
            phase_time: PhaseTimes::default(),
            phase_counter: 0,
            attempts: 0,
            objects: Vec::new(),
            order: Vec::new(),
            locks_held: 0,
            pending: AckSet::default(),
            responses: Vec::new(),
            is_migration,
        }
    }

    /// Readies a finished record for a new transaction: every field as
    /// [`TxnState::new`] sets it, the buffers emptied but keeping their
    /// capacity.
    pub(crate) fn reuse(&mut self, client: ClientId, started: SimTime, is_migration: bool) {
        let mut objects = std::mem::take(&mut self.objects);
        let mut order = std::mem::take(&mut self.order);
        let mut pending = std::mem::take(&mut self.pending);
        let mut responses = std::mem::take(&mut self.responses);
        objects.clear();
        order.clear();
        pending.clear();
        responses.clear();
        *self = TxnState {
            objects,
            order,
            pending,
            responses,
            ..TxnState::new(client, started, is_migration)
        };
    }

    /// Numbers the entries' request positions once they are all in, in
    /// the order requested: the reads first, then the writes, each in the
    /// order requested.
    pub(crate) fn number_requests(&mut self) {
        let mut read = 0;
        let mut write = self.objects.iter().filter(|e| !e.is_write()).count();
        for e in &mut self.objects {
            let next = if e.is_write() { &mut write } else { &mut read };
            e.pos = *next;
            *next += 1;
        }
    }

    /// Records the request-order permutation of the numbered entries, now
    /// in lock-plan order.
    pub(crate) fn index_request_order(&mut self) {
        debug_assert!(self.objects.windows(2).all(|w| w[0].obj < w[1].obj));
        self.order.clear();
        self.order.resize(self.objects.len(), 0);
        for (i, e) in self.objects.iter().enumerate() {
            self.order[e.pos] = i;
        }
    }

    /// The entries in request order: the reads, then the writes, each in
    /// the order requested.
    pub(crate) fn in_request_order(&self) -> impl Iterator<Item = &TxnObject> {
        self.order.iter().map(|&i| &self.objects[i])
    }

    /// Moves the transaction into `phase` at `now`, charging the time since
    /// the last move to the phase it leaves (a retry that stays in its
    /// phase charges it too).
    pub(crate) fn enter(&mut self, phase: Phase, now: SimTime) {
        self.phase_time = self.phase_times(now);
        self.phase = phase;
        self.phase_since = now;
    }

    /// The time spent in each phase up to `now`, the current one included.
    /// The four sum to `now - started`.
    pub(crate) fn phase_times(&self, now: SimTime) -> PhaseTimes {
        let mut times = self.phase_time;
        let slot = match self.phase {
            Phase::LockWait => &mut times.lock_wait,
            Phase::ReadGather => &mut times.read_gather,
            Phase::PrepareGather => &mut times.prepare_gather,
            Phase::CommitGather => &mut times.commit_gather,
        };
        *slot = *slot + (now - self.phase_since);
        times
    }

    /// The entry of `obj`, if the transaction touches it.
    pub(crate) fn object_mut(&mut self, obj: ObjectId) -> Option<&mut TxnObject> {
        let i = self.objects.binary_search_by_key(&obj, |e| e.obj).ok()?;
        self.objects.get_mut(i)
    }
}

/// Outstanding acknowledgements of one phase: per object, the set of sites
/// still to answer, objects in the order their quorums were added.
///
/// It replaces a `DetSet<(ObjectId, SiteId)>` filled quorum by quorum in
/// ascending site order, and iterates — and prints `Debug` — exactly as
/// that set did: objects in insertion order, each object's sites
/// ascending. Removal is a bit flip instead of an index rewrite.
#[derive(Default)]
pub(crate) struct AckSet {
    /// Objects with at least one outstanding site (emptied sets are
    /// dropped, so `is_empty` is `entries.is_empty()`).
    entries: Vec<(ObjectId, QuorumSet)>,
}

impl AckSet {
    /// Expects an acknowledgement from every member of `quorum` for `obj`
    /// (an object not already present).
    pub(crate) fn add_quorum(&mut self, obj: ObjectId, quorum: &QuorumSet) {
        debug_assert!(self.entries.iter().all(|&(o, _)| o != obj));
        if !quorum.is_empty() {
            self.entries.push((obj, quorum.clone()));
        }
    }

    /// Expects an acknowledgement for `obj` from every member of `quorum`
    /// but those in `answered`, in place of the sites it still owes and
    /// keeping its place in the order, and returns the sites now owed.
    /// `None` if nothing was owed for `obj` (nothing changes) or nothing
    /// is owed any more (the object is dropped).
    pub(crate) fn replace_quorum(
        &mut self,
        obj: ObjectId,
        quorum: &QuorumSet,
        answered: impl IntoIterator<Item = SiteId>,
    ) -> Option<&QuorumSet> {
        let i = self.entries.iter().position(|(o, _)| *o == obj)?;
        let sites = &mut self.entries[i].1;
        sites.clone_from(quorum);
        for site in answered {
            sites.remove(site);
        }
        if sites.is_empty() {
            self.entries.remove(i);
            return None;
        }
        Some(&self.entries[i].1)
    }

    /// Expects an acknowledgement from `site` for `obj`, whether or not it
    /// already gave one.
    pub(crate) fn insert(&mut self, obj: ObjectId, site: SiteId) {
        match self.entries.iter_mut().find(|(o, _)| *o == obj) {
            Some((_, sites)) => sites.insert(site),
            None => self
                .entries
                .push((obj, QuorumSet::from_indices([site.as_u32()]))),
        }
    }

    /// Whether some acknowledgement for `obj` is still outstanding.
    pub(crate) fn owes(&self, obj: ObjectId) -> bool {
        self.entries.iter().any(|(o, _)| *o == obj)
    }

    /// Whether `(obj, site)` is still outstanding.
    pub(crate) fn contains(&self, obj: ObjectId, site: SiteId) -> bool {
        self.entries
            .iter()
            .any(|(o, sites)| *o == obj && sites.contains(site))
    }

    /// Records `site`'s acknowledgement for `obj`; `true` if it was
    /// outstanding.
    pub(crate) fn remove(&mut self, obj: ObjectId, site: SiteId) -> bool {
        let Some(i) = self
            .entries
            .iter()
            .position(|(o, sites)| *o == obj && sites.contains(site))
        else {
            return false;
        };
        self.entries[i].1.remove(site);
        if self.entries[i].1.is_empty() {
            self.entries.remove(i);
        }
        true
    }

    /// Whether nothing is outstanding.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every outstanding acknowledgement.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Outstanding `(object, site)` pairs: objects in insertion order, each
    /// object's sites ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, SiteId)> + '_ {
        self.entries
            .iter()
            .flat_map(|(obj, sites)| sites.iter().map(move |s| (*obj, s)))
    }

    /// The outstanding sites alone, in [`AckSet::iter`] order.
    pub(crate) fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.iter().map(|(_, s)| s)
    }
}

impl fmt::Debug for AckSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Progress of a live reconfiguration.
#[derive(Debug)]
pub(crate) enum MigrationPhase {
    /// Waiting for in-flight client transactions to drain.
    Draining,
    /// Objects are being migrated (read old structure, write both).
    Migrating,
}

/// An in-progress live reconfiguration of one shard towards `target` — any
/// [`ReplicaControl`] implementation, so a run can migrate between protocol
/// *families* (e.g. ARBITRARY → ROWA), not just between trees. Only the
/// objects hashing to `shard` are migrated; the other shards keep serving
/// once the drain completes.
pub(crate) struct Reconfig {
    pub(crate) target: Box<dyn ReplicaControl>,
    pub(crate) shard: usize,
    pub(crate) phase: MigrationPhase,
}

impl fmt::Debug for Reconfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reconfig")
            .field("target", &self.target.describe())
            .field("shard", &self.shard)
            .field("phase", &self.phase)
            .finish()
    }
}

/// A client's estimate of one phase's round trip, kept the way RFC 6298
/// keeps TCP's (Jacobson, SIGCOMM 1988): a smoothed round-trip time
/// `SRTT` and its mean deviation `RTTVAR`, in integer microseconds.
///
/// A sample is the time from sending a phase's requests to the ack that
/// completes it, taken only while the transaction never retried (Karn's
/// rule: after a re-send, an ack does not tell which send it answers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RttEstimator {
    /// `(SRTT, RTTVAR)` in µs; `None` until the first sample.
    est: Option<(u64, u64)>,
}

impl RttEstimator {
    /// Folds in one round trip: the first sets `SRTT = R, RTTVAR = R/2`,
    /// later ones `RTTVAR ← ¾·RTTVAR + ¼·|SRTT − R|`, then
    /// `SRTT ← ⅞·SRTT + ⅛·R`.
    pub(crate) fn sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_micros();
        self.est = Some(match self.est {
            None => (r, r / 2),
            Some((srtt, rttvar)) => ((7 * srtt + r) / 8, (3 * rttvar + srtt.abs_diff(r)) / 4),
        });
    }

    /// Samples `txn`'s current phase, completed at `now`: its round trip
    /// from the requests' send, unless the transaction retried.
    pub(crate) fn sample_phase(&mut self, txn: &TxnState, now: SimTime) {
        if txn.attempts == 0 {
            self.sample(now - txn.phase_since);
        }
    }

    /// The phase timeout: `SRTT + max(4·RTTVAR, SRTT)`, raised to `floor`
    /// and cut to `ceiling`; `ceiling` before the first sample. The
    /// `SRTT` term keeps the timeout at twice the round trip or more once
    /// `RTTVAR` decays, as it does to 0 under a fixed link latency.
    pub(crate) fn timeout(&self, floor: SimDuration, ceiling: SimDuration) -> SimDuration {
        let Some((srtt, rttvar)) = self.est else {
            return ceiling;
        };
        let rto = srtt.saturating_add((4 * rttvar).max(srtt));
        SimDuration::from_micros(rto.max(floor.as_micros())).min(ceiling)
    }
}

/// Everything the coordinator keeps for one client. A client is closed
/// loop, so it has at most one transaction in flight, and its slot holds
/// that transaction's record.
pub(crate) struct ClientState {
    /// SID used in this client's write timestamps (distinct from replicas).
    pub(crate) sid: SiteId,
    pub(crate) suspected: DetSet<SiteId>,
    /// The client's phase round-trip estimate, which times its
    /// transactions' first attempts. It sets only event times, so the
    /// state fingerprint leaves it out.
    pub(crate) rtt: RttEstimator,
    /// The id of the transaction in flight; `None` while the client idles.
    pub(crate) op: Option<OpId>,
    /// The record of the transaction in flight, made on the client's first
    /// transaction and readied in place for each later one (see
    /// [`ClientState::fresh_txn`]). Boxed and made on first use, so
    /// building a simulation allocates no record. While the client idles
    /// it holds the last transaction's leftovers, which no decision reads.
    pub(crate) txn: Option<Box<TxnState>>,
    /// Scripted transactions not yet issued, in submission order.
    pub(crate) scripted: VecDeque<(SimTime, TxnRequest)>,
}

impl ClientState {
    /// An idle client whose write timestamps carry `sid`.
    pub(crate) fn new(sid: SiteId) -> Self {
        ClientState {
            sid,
            suspected: DetSet::new(),
            rtt: RttEstimator::default(),
            op: None,
            txn: None,
            scripted: VecDeque::new(),
        }
    }

    /// The client's record, readied for a new transaction as
    /// [`TxnState::reuse`] leaves it.
    pub(crate) fn fresh_txn(
        &mut self,
        client: ClientId,
        started: SimTime,
        is_migration: bool,
    ) -> &mut TxnState {
        let txn = self
            .txn
            .get_or_insert_with(|| Box::new(TxnState::new(client, started, is_migration)));
        txn.reuse(client, started, is_migration);
        txn
    }
}

/// A scripted transaction: explicit reads and writes on distinct objects.
///
/// Submit with [`crate::Simulation::schedule_transaction`]; combine with
/// [`crate::SimConfig::auto_workload`]` = false` for fully scripted runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxnRequest {
    /// Objects to read.
    pub reads: Vec<ObjectId>,
    /// Objects to write, with their new values.
    pub writes: Vec<(ObjectId, Bytes)>,
}

impl TxnRequest {
    /// A single-object read.
    pub fn read(obj: ObjectId) -> Self {
        TxnRequest {
            reads: vec![obj],
            writes: Vec::new(),
        }
    }

    /// A single-object write.
    pub fn write(obj: ObjectId, value: Bytes) -> Self {
        TxnRequest {
            reads: Vec::new(),
            writes: vec![(obj, value)],
        }
    }
}

/// Outcome of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Aggregated counters.
    pub metrics: SimMetrics,
    /// Consistency violations (empty for a correct protocol).
    pub violations: usize,
    /// Whether the execution was one-copy consistent.
    pub consistent: bool,
    /// Transactions still in flight when the simulation ended (e.g. blocked
    /// on a crashed quorum member during 2PC phase 2).
    pub ops_incomplete: usize,
    /// Reads verified by the checker.
    pub reads_checked: u64,
    /// Writes recorded by the checker.
    pub writes_recorded: u64,
    /// The recorded operation history (empty unless
    /// [`crate::SimConfig::record_history`] was set).
    pub history: History,
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | consistent: {} ({} read checks, {} writes recorded), {} in flight",
            self.metrics,
            self.consistent,
            self.reads_checked,
            self.writes_recorded,
            self.ops_incomplete
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A retry's re-picked quorum, less the members that already
    /// answered, replaces what its object still owes, in the object's
    /// place; an object owing nothing, or whose whole new quorum already
    /// answered, is left out.
    #[test]
    fn replace_quorum_replaces_what_an_object_owes_in_place() {
        let mut acks = AckSet::default();
        acks.add_quorum(ObjectId(1), &QuorumSet::from_indices([1, 2]));
        acks.add_quorum(ObjectId(2), &QuorumSet::from_indices([3]));
        acks.add_quorum(ObjectId(4), &QuorumSet::from_indices([7, 8]));
        assert!(acks.remove(ObjectId(1), SiteId::new(1)));
        let owed = acks.replace_quorum(
            ObjectId(1),
            &QuorumSet::from_indices([1, 4, 5]),
            [SiteId::new(1)],
        );
        assert_eq!(owed, Some(&QuorumSet::from_indices([4, 5])));
        assert!(acks
            .replace_quorum(ObjectId(3), &QuorumSet::from_indices([6]), [])
            .is_none());
        assert!(acks.remove(ObjectId(4), SiteId::new(7)));
        let answered = [SiteId::new(7), SiteId::new(9)];
        let q = QuorumSet::from_indices([7, 9]);
        assert!(acks.replace_quorum(ObjectId(4), &q, answered).is_none());
        let got: Vec<(u32, u32)> = acks.iter().map(|(o, s)| (o.0, s.as_u32())).collect();
        assert_eq!(got, [(1, 4), (1, 5), (2, 3)]);
        assert!(acks.owes(ObjectId(2)) && !acks.owes(ObjectId(3)) && !acks.owes(ObjectId(4)));
    }

    /// RFC 6298's estimator: the first sample R gives `(R, R/2)`, later
    /// ones the integer EWMA update, and the timeout is
    /// `SRTT + max(4·RTTVAR, SRTT)` within its floor and ceiling.
    #[test]
    fn rtt_estimator_follows_rfc_6298() {
        let us = SimDuration::from_micros;
        let (floor, ceiling) = (us(1), us(3_000));
        let mut rtt = RttEstimator::default();
        assert_eq!(rtt.timeout(floor, ceiling), ceiling, "no sample yet");
        rtt.sample(us(600));
        assert_eq!(rtt.est, Some((600, 300)));
        assert_eq!(rtt.timeout(floor, ceiling), us(600 + 1_200));
        // RTTVAR ← (3·300 + |600 − 1000|) / 4 = 325, SRTT ← (7·600 + 1000) / 8 = 650.
        rtt.sample(us(1_000));
        assert_eq!(rtt.est, Some((650, 325)));
        assert_eq!(rtt.timeout(floor, ceiling), us(650 + 1_300));
        // Under a fixed round trip RTTVAR decays to 0 and SRTT holds the
        // timeout at twice the round trip.
        let mut fixed = RttEstimator::default();
        for _ in 0..40 {
            fixed.sample(us(600));
        }
        assert_eq!(fixed.est, Some((600, 0)));
        assert_eq!(fixed.timeout(floor, ceiling), us(1_200));
        assert_eq!(fixed.timeout(us(1_500), ceiling), us(1_500), "floor");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever it sampled, the timeout stays within its floor and its
        /// ceiling, `op_timeout`.
        #[test]
        fn rtt_timeout_never_exceeds_its_ceiling(
            samples in proptest::collection::vec(0u64..100_000, 0..32),
            floor in 0u64..2_000,
            ceiling in 2_000u64..50_000,
        ) {
            let mut rtt = RttEstimator::default();
            for r in samples {
                rtt.sample(SimDuration::from_micros(r));
                let t = rtt.timeout(SimDuration::from_micros(floor), SimDuration::from_micros(ceiling));
                prop_assert!(t.as_micros() <= ceiling && t.as_micros() >= floor);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `AckSet` against the `DetSet<(ObjectId, SiteId)>` it replaced,
        /// filled the way the coordinator fills both (quorum by quorum,
        /// each quorum's sites ascending) and drained by random acks,
        /// duplicates and out-of-quorum ones included.
        #[test]
        fn ack_set_iterates_and_prints_like_the_det_set_it_replaced(
            quorums in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..12), 1..8),
            acks in proptest::collection::vec((0u32..10, 0u32..40), 0..120),
        ) {
            let mut acks_set = AckSet::default();
            let mut pairs: DetSet<(ObjectId, SiteId)> = DetSet::new();
            // Distinct objects in a scrambled order, like a txn's writes.
            for (i, members) in quorums.iter().enumerate() {
                let obj = ObjectId((i as u32 * 7 + 3) % 10);
                let q = QuorumSet::from_indices(members.iter().copied());
                acks_set.add_quorum(obj, &q);
                for site in q.iter() {
                    pairs.insert((obj, site));
                }
            }
            for &(o, s) in &acks {
                let (obj, site) = (ObjectId(o), SiteId::new(s));
                prop_assert_eq!(acks_set.contains(obj, site), pairs.contains(&(obj, site)));
                prop_assert_eq!(acks_set.remove(obj, site), pairs.remove(&(obj, site)));
                prop_assert_eq!(acks_set.owes(obj), pairs.iter().any(|&(o, _)| o == obj));
                let got: Vec<(ObjectId, SiteId)> = acks_set.iter().collect();
                let want: Vec<(ObjectId, SiteId)> = pairs.iter().copied().collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(format!("{acks_set:?}"), format!("{pairs:?}"));
                prop_assert_eq!(acks_set.is_empty(), pairs.is_empty());
            }
            acks_set.clear();
            prop_assert!(acks_set.is_empty());
            prop_assert_eq!(format!("{acks_set:?}"), "{}");
        }

        /// The indexed request order walks the entries exactly as the scan
        /// it replaced (for each request position, the entry holding it),
        /// and a reused record plans and prints like a fresh one.
        #[test]
        fn planned_request_order_matches_a_position_scan(
            requested in proptest::collection::vec((0u32..64, any::<bool>()), 1..17),
            earlier in proptest::collection::vec((0u32..64, any::<bool>()), 1..17),
        ) {
            let fill = |txn: &mut TxnState, entries: &[(u32, bool)]| {
                let mut seen = DetSet::new();
                for &(obj, write) in entries {
                    if seen.insert(obj) {
                        let value = write.then(|| Bytes::copy_from_slice(&obj.to_be_bytes()));
                        txn.objects.push(TxnObject::new(ObjectId(obj), value));
                    }
                }
                txn.number_requests();
                txn.objects.sort_unstable_by_key(|e| e.obj);
                txn.index_request_order();
            };
            let mut fresh = TxnState::new(ClientId(1), SimTime::ZERO, false);
            fill(&mut fresh, &requested);
            let scanned: Vec<ObjectId> = (0..fresh.objects.len())
                .filter_map(|pos| fresh.objects.iter().find(|e| e.pos == pos))
                .map(|e| e.obj)
                .collect();
            let planned: Vec<ObjectId> = fresh.in_request_order().map(|e| e.obj).collect();
            prop_assert_eq!(&planned, &scanned);
            // The reads come first.
            let mut tail = fresh.in_request_order().skip_while(|e| !e.is_write());
            prop_assert!(tail.all(TxnObject::is_write));

            let mut reused = TxnState::new(ClientId(2), SimTime::from_micros(9), true);
            fill(&mut reused, &earlier);
            reused.phase = Phase::CommitGather;
            reused.attempts = 3;
            reused.pending.add_quorum(ObjectId(1), &QuorumSet::from_indices([1, 2]));
            reused.responses.push((ObjectId(1), SiteId::new(1), Timestamp::ZERO));
            reused.reuse(ClientId(1), SimTime::ZERO, false);
            fill(&mut reused, &requested);
            prop_assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
        }
    }
}
